module Series = struct
  type t = {
    mutable data : float array;
    mutable len : int;
    mutable sorted : float array option;
  }

  let create () = { data = [||]; len = 0; sorted = None }

  let add t v =
    let cap = Array.length t.data in
    if t.len = cap then begin
      let ncap = if cap = 0 then 256 else cap * 2 in
      let narr = Array.make ncap 0.0 in
      Array.blit t.data 0 narr 0 t.len;
      t.data <- narr
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1;
    t.sorted <- None

  let count t = t.len

  let total t =
    let s = ref 0.0 in
    for i = 0 to t.len - 1 do
      s := !s +. t.data.(i)
    done;
    !s

  let mean t = if t.len = 0 then 0.0 else total t /. float_of_int t.len

  let fold f init t =
    let acc = ref init in
    for i = 0 to t.len - 1 do
      acc := f !acc t.data.(i)
    done;
    !acc

  let min t = if t.len = 0 then 0.0 else fold Float.min Float.infinity t
  let max t = if t.len = 0 then 0.0 else fold Float.max Float.neg_infinity t

  let stddev t =
    if t.len < 2 then 0.0
    else begin
      let m = mean t in
      let ss = fold (fun acc v -> acc +. ((v -. m) *. (v -. m))) 0.0 t in
      sqrt (ss /. float_of_int (t.len - 1))
    end

  let sorted t =
    match t.sorted with
    | Some s -> s
    | None ->
        let s = Array.sub t.data 0 t.len in
        Array.sort Float.compare s;
        t.sorted <- Some s;
        s

  let percentile t p =
    if t.len = 0 then 0.0
    else begin
      let s = sorted t in
      let rank =
        int_of_float (Float.round (p /. 100.0 *. float_of_int (t.len - 1)))
      in
      let rank = Stdlib.max 0 (Stdlib.min (t.len - 1) rank) in
      s.(rank)
    end
end

module Timeseries = struct
  type t = { bucket : Time.t; table : (int, float ref) Hashtbl.t }

  let create ~bucket =
    assert (bucket > 0);
    { bucket; table = Hashtbl.create 64 }

  let add t ~at v =
    let idx = at / t.bucket in
    match Hashtbl.find_opt t.table idx with
    | Some r -> r := !r +. v
    | None -> Hashtbl.add t.table idx (ref v)

  let buckets t =
    if Hashtbl.length t.table = 0 then []
    else begin
      let indices = Hashtbl.fold (fun k _ acc -> k :: acc) t.table [] in
      let lo = List.fold_left Stdlib.min (List.hd indices) indices in
      let hi = List.fold_left Stdlib.max (List.hd indices) indices in
      List.init
        (hi - lo + 1)
        (fun i ->
          let idx = lo + i in
          let v =
            match Hashtbl.find_opt t.table idx with
            | Some r -> !r
            | None -> 0.0
          in
          (idx * t.bucket, v))
    end

  let rate_per_sec t =
    let width = Time.to_sec_f t.bucket in
    List.map
      (fun (start, sum) -> (Time.to_sec_f start, sum /. width))
      (buckets t)
end

module Busy = struct
  type t = { mutable busy : Time.t }

  let create () = { busy = 0 }

  let record t ~start ~stop =
    if stop > start then t.busy <- t.busy + (stop - start)

  let busy_time t = t.busy

  let utilization t ~over =
    if over <= 0 then 0.0 else float_of_int t.busy /. float_of_int over
end
