type point = Rdma_move | Rpc_call | Rpc_post

type verdict =
  | Pass
  | Drop
  | Delay of Sim.Time.t
  | Duplicate
  | Reorder of Sim.Time.t
  | Corrupt of { offset : int; xor : int }

type hook = point:point -> src:Loc.t -> dst:Loc.t -> bytes:int -> verdict

(* Process-global fallback hook, used only when no engine is running on
   the calling domain (e.g. tests installing a hook before [Engine.run]).
   Hooks installed from inside a simulation process live in that
   engine's {!Sim.Engine.Local} storage instead, so concurrent fault
   scenarios on different domains each see exactly their own hook. *)
let the_hook : hook option ref = ref None
let local_hook : hook Sim.Engine.Local.key = Sim.Engine.Local.key ()

let set h =
  match Sim.Engine.current () with
  | Some eng -> Sim.Engine.Local.set eng local_hook h
  | None -> the_hook := Some h

let clear () =
  (match Sim.Engine.current () with
  | Some eng -> Sim.Engine.Local.remove eng local_hook
  | None -> ());
  the_hook := None

let hook () =
  match Sim.Engine.current () with
  | Some eng -> (
      match Sim.Engine.Local.get eng local_hook with
      | Some _ as h -> h
      | None -> !the_hook)
  | None -> !the_hook

let active () = Option.is_some (hook ())

let consult ~point ~src ~dst ~bytes =
  match hook () with
  | None -> Pass
  | Some h -> h ~point ~src ~dst ~bytes

let point_name = function
  | Rdma_move -> "rdma-move"
  | Rpc_call -> "rpc-call"
  | Rpc_post -> "rpc-post"

let verdict_name = function
  | Pass -> "pass"
  | Drop -> "drop"
  | Delay _ -> "delay"
  | Duplicate -> "duplicate"
  | Reorder _ -> "reorder"
  | Corrupt _ -> "corrupt"
