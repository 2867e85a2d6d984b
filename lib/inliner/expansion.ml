(* The expansion phase (paper, Section III-B and Section IV "Expansion").

   Repeatedly descends from the root, at each expanded node choosing the
   child with the highest priority P(n), until reaching a cutoff node,
   which is then expanded if it passes the expansion threshold.

   Priorities:
     P_I(n) = B_L(n)/|ir(n)| − ψ_r(n)          for cutoffs       (Eq. 5, 14)
     P_I(n) = max over children of P_I          for expanded/poly (Eq. 5)
     P(n)   = P_I(n) − ψ(n)                                      (Eq. 6)
     ψ(n)   = p1·S_ir(n) + p2·S_b(n) − b1·max(0, b2 − N_c(n)²)   (Eq. 7)

   Expansion threshold (adaptive, Eq. 8):
     B_L(n)/|ir(n)| ≥ e^((S_ir(root) − r1)/r2)
   or, under the Fixed ablation policy, expansion continues while the total
   call-tree size stays under T_e. *)

open Calltree

let neg_inf = neg_infinity

(* ψ_r(n), Eq. 14: pressure against monopolizing exploration with
   recursion. d(n)=1 (first recursive occurrence) is free. *)
let psi_r (n : node) : float =
  let d = rec_depth n in
  max 1.0 n.freq *. max 0.0 ((2.0 ** float_of_int d) -. 2.0)

(* ψ(n), Eq. 7, from the subtree aggregates. *)
let psi_of (p : Params.t) ~(s_ir : int) ~(s_b : int) ~(n_c : int) : float =
  let ncn = float_of_int n_c in
  (p.p1 *. float_of_int s_ir)
  +. (p.p2 *. float_of_int s_b)
  -. (p.b1 *. max 0.0 (p.b2 -. (ncn *. ncn)))

let psi (t : t) (n : node) : float =
  psi_of t.params ~s_ir:(s_ir t n) ~s_b:(s_b t n) ~n_c:(n_c n)

(* Does the subtree contain a cutoff still worth visiting this phase? *)
let rec has_candidate (n : node) : bool =
  match n.kind with
  | Cutoff _ -> not n.declined
  | Expanded _ | Poly _ -> List.exists has_candidate n.children
  | Generic _ | Deleted -> false

(* P_I of a cutoff, Eq. 5 and 14. *)
let cutoff_priority (t : t) (n : node) : float =
  let size = max 1 (node_size t n) in
  (local_benefit t n /. float_of_int size) -. psi_r n

let rec intrinsic_priority (t : t) (n : node) : float =
  match n.kind with
  | Cutoff _ -> cutoff_priority t n
  | Expanded _ | Poly _ ->
      List.fold_left
        (fun acc c -> if has_candidate c then max acc (intrinsic_priority t c) else acc)
        neg_inf n.children
  | Generic _ | Deleted -> neg_inf

let priority (t : t) (n : node) : float = intrinsic_priority t n -. psi t n

(* ---------- cached aggregates ----------

   [psi], [intrinsic_priority] and [priority] above are the specification;
   they recurse over the whole subtree. [run] instead keeps every node's
   candidate flag, P_I, S_ir, S_b and N_c in the node, combined from its
   children's: once for the whole tree when the phase starts, then after
   each step only for the touched node and the ancestors the descent
   passed. Each combination applies the same operations in the same order
   as the specification, so the cached values are bit-identical to it. *)

let aggregate (t : t) (n : node) : unit =
  match n.kind with
  | Cutoff _ ->
      let size = node_size t n in
      n.candidate <- not n.declined;
      n.p_i <- cutoff_priority t n;
      n.sub_ir <- size;
      n.sub_b <- size;
      n.sub_c <- 1
  | Expanded _ | Poly _ ->
      let candidate = ref false and p_i = ref neg_inf in
      let s_ir = ref (node_size t n) and s_b = ref 0 and n_c = ref 0 in
      List.iter
        (fun (c : node) ->
          if c.candidate then begin
            candidate := true;
            p_i := max !p_i c.p_i
          end;
          s_ir := !s_ir + c.sub_ir;
          s_b := !s_b + c.sub_b;
          n_c := !n_c + c.sub_c)
        n.children;
      n.candidate <- !candidate;
      n.p_i <- !p_i;
      n.sub_ir <- !s_ir;
      n.sub_b <- !s_b;
      n.sub_c <- !n_c
  | Generic _ | Deleted ->
      n.candidate <- false;
      n.p_i <- neg_inf;
      n.sub_ir <- 0;
      n.sub_b <- 0;
      n.sub_c <- 0

let cached_psi (t : t) (n : node) : float =
  psi_of t.params ~s_ir:n.sub_ir ~s_b:n.sub_b ~n_c:n.sub_c

let cached_priority (t : t) (n : node) : float = n.p_i -. cached_psi t n

(* The first candidate of highest priority, each priority computed once. *)
let best_child (t : t) (children : node list) : node option =
  let best = ref None and best_p = ref neg_inf in
  List.iter
    (fun (c : node) ->
      if c.candidate then begin
        let p = cached_priority t c in
        if Option.is_none !best || p > !best_p then begin
          best := Some c;
          best_p := p
        end
      end)
    children;
  !best

(* Walks from the root to the most promising cutoff. A candidate subtree
   always holds an undeclined cutoff, so the walk cannot dead-end. *)
let best_cutoff (t : t) : node list =
  let rec descend path children =
    match best_child t children with
    | None -> path
    | Some n -> (
        match n.kind with
        | Cutoff _ -> n :: path
        | _ -> descend (n :: path) n.children)
  in
  descend [] t.children

(* S_ir of the whole tree from the cached aggregates: the root counts as
   an expanded node over the working root IR, measured once per phase. *)
let cached_tree_size ~(root_size : int) (t : t) : int =
  List.fold_left (fun acc (c : node) -> acc + c.sub_ir) root_size t.children

let passes_threshold (t : t) ~(tree_size : int) (n : node) : bool =
  match t.params.threshold_policy with
  | Params.Fixed { te; _ } -> tree_size < te
  | Params.Adaptive ->
      let p = t.params in
      let size = max 1 (node_size t n) in
      let relative_benefit = local_benefit t n /. float_of_int size in
      relative_benefit >= exp ((float_of_int tree_size -. p.r1) /. p.r2)

(* The expansion threshold for one cutoff. *)
let may_expand (t : t) (n : node) : bool = passes_threshold t ~tree_size:(tree_s_ir t) n

(* The numeric gate [may_expand] compares against, for telemetry: the
   adaptive relative-benefit bound (Eq. 8) or the fixed tree-size budget
   T_e (compared against [tree_size], not the benefit). *)
let threshold_value (t : t) ~(tree_size : int) : float =
  match t.params.threshold_policy with
  | Params.Fixed { te; _ } -> float_of_int te
  | Params.Adaptive -> exp ((float_of_int tree_size -. t.params.r1) /. t.params.r2)

let m_expansions = Obs.Metrics.counter "inliner.expansions"

(* One structured telemetry record per expansion-threshold decision:
   which cutoff was at the head of the exploration, at what benefit, cost,
   penalty and priority, and whether it was expanded or declined. The
   node/parent ids and target label let [Obs.Explain] rebuild the tree.
   Penalty and priority come from the cached aggregates. *)
let trace_decision (t : t) (n : node) ~(tree_size : int) ~(verdict : string) : unit =
  Obs.Trace.emit "expand_decision" (fun () ->
      Support.Json.
        [
          ("root", Int t.root_meth);
          ("nid", Int n.nid);
          ("parent", Int n.pnid);
          ("depth", Int (node_depth n));
          ("target", String n.tname);
          ("site_m", Int n.site.sm);
          ("site_idx", Int n.site.sidx);
          ("callsite", Int n.call_vid);
          ("benefit", Float (local_benefit t n));
          ("cost", Int (node_size t n));
          ("penalty", Float (cached_psi t n));
          ("priority", Float (cached_priority t n));
          ("threshold", Float (threshold_value t ~tree_size));
          ("tree_size", Int tree_size);
          ("verdict", String verdict);
        ])

(* One expansion phase. Returns the number of nodes expanded. *)
let run (t : t) : int =
  let rec init (n : node) =
    n.declined <- false;
    List.iter init n.children;
    aggregate t n
  in
  List.iter init t.children;
  (* expansion never mutates the root IR *)
  let root_size = Ir.Fn.size t.root_fn in
  let expanded = ref 0 in
  let continue_ = ref true in
  while !continue_ && !expanded < t.params.max_expansions_per_round do
    (* watchdog checkpoint: between expansions the tree and the root IR
       are consistent, so a fuel abort here is clean *)
    Support.Fuel.spend 1;
    match best_cutoff t with
    | [] -> continue_ := false
    | n :: ancestors ->
        let tree_size = cached_tree_size ~root_size t in
        if passes_threshold t ~tree_size n then begin
          trace_decision t n ~tree_size ~verdict:"expand";
          if expand_cutoff t n then begin
            incr expanded;
            Obs.Metrics.incr m_expansions
          end;
          (* Generic outcomes make no progress but also leave no cutoff *)
          List.iter (aggregate t) n.children;
          aggregate t n;
          List.iter (aggregate t) ancestors
        end
        else begin
          trace_decision t n ~tree_size ~verdict:"decline";
          match t.params.threshold_policy with
          | Params.Fixed _ ->
              (* the budget is global: once exceeded, the phase is over *)
              continue_ := false
          | Params.Adaptive ->
              n.declined <- true;
              aggregate t n;
              List.iter (aggregate t) ancestors
        end
  done;
  !expanded
