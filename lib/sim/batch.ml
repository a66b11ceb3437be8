let workers ~domains ~jobs =
  max 1 (min domains (min jobs (Domain.recommended_domain_count ())))

let run ?(domains = 1) jobs =
  let jobs = Array.of_list jobs in
  let n = Array.length jobs in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      results.(i) <- Some (try Ok (jobs.(i) ()) with e -> Error e);
      work ()
    end
  in
  let helpers =
    List.init (workers ~domains ~jobs:n - 1) (fun _ -> Domain.spawn work)
  in
  work ();
  (* Joining publishes every helper's writes to [results]. *)
  List.iter Domain.join helpers;
  Array.to_list (Array.map Option.get results)

let map ?domains f xs =
  run ?domains (List.map (fun x () -> f x) xs)
  |> List.map (function Ok v -> v | Error e -> raise e)
