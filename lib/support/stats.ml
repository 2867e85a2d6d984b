(* Small statistics helpers used by the benchmark harness to report
   mean/stddev in the same style as the paper's evaluation. *)

let mean xs =
  match xs with
  | [] -> invalid_arg "Stats.mean: empty"
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
      let m = mean xs in
      let n = float_of_int (List.length xs) in
      let ss = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
      sqrt (ss /. (n -. 1.0))

let geomean xs =
  match xs with
  | [] -> invalid_arg "Stats.geomean: empty"
  | _ ->
      let logs = List.map (fun x ->
        if x <= 0.0 then invalid_arg "Stats.geomean: non-positive value"
        else log x) xs
      in
      exp (mean logs)

let min_max xs =
  match xs with
  | [] -> invalid_arg "Stats.min_max: empty"
  | x :: rest ->
      List.fold_left (fun (lo, hi) v -> (min lo v, max hi v)) (x, x) rest

(* The paper: "we computed the average of the last 40% (but at most 20)
   repetitions" — steady-state window selection. *)
let steady_state_window xs =
  let n = List.length xs in
  if n = 0 then invalid_arg "Stats.steady_state_window: empty";
  let k = min 20 (max 1 (n * 40 / 100)) in
  let rec drop i = function
    | rest when i = 0 -> rest
    | [] -> []
    | _ :: tl -> drop (i - 1) tl
  in
  drop (n - k) xs

(* Exact rank percentile of an ascending int list: the smallest element
   whose rank reaches ceil(q * n); 0 on an empty list. The serving layer
   and the timeline's fleet snapshots share this so their percentile
   semantics can never drift apart. *)
let percentile (xs : int list) (q : float) : int =
  let n = List.length xs in
  if n = 0 then 0
  else
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    List.nth xs (min (max rank 1) n - 1)

(* The fleet summary tuple: p50 / p90 / p99 / max of an ascending list
   (all 0 when empty). *)
let percentiles (xs : int list) : int * int * int * int =
  ( percentile xs 0.50,
    percentile xs 0.90,
    percentile xs 0.99,
    percentile xs 1.0 )
