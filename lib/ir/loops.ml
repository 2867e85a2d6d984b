(* Natural-loop discovery from dominator-identified back edges.

   A back edge is an edge b -> h where h dominates b. The loop body of h is
   everything that reaches b without passing through h. Loop nesting depth
   per block feeds static frequency estimation and the inliner's loop-aware
   priorities; headers feed first-iteration peeling.

   Passes iterate [loops] and each [body] table, so both orders are part of
   the contract: [loops] is the fold order of a header-keyed table filled
   in block order, and each body is filled by a depth-first pull over
   ascending predecessor lists. *)

open Types

type loop = {
  header : bid;
  body : (bid, unit) Hashtbl.t;   (* includes the header *)
  back_edges : bid list;          (* sources of back edges into [header] *)
}

type t = {
  loops : loop list;
  depth : (bid, int) Hashtbl.t;   (* 0 outside any loop *)
}

let of_dominators (fn : fn) (doms : Dominators.t) : t =
  let preds = Dominators.preds doms in
  let reachable = Dominators.reachable doms in
  (* back edges grouped by header *)
  let by_header : (bid, bid list) Hashtbl.t = Hashtbl.create 8 in
  Fn.iter_blocks
    (fun blk ->
      if reachable blk.b_id then
        List.iter
          (fun s ->
            if reachable s && Dominators.dominates doms ~a:s ~b:blk.b_id then
              let old = try Hashtbl.find by_header s with Not_found -> [] in
              Hashtbl.replace by_header s (blk.b_id :: old))
          (Fn.succs_of_term blk.term))
    fn;
  let nest = Array.make (Array.length preds) 0 in
  let loops =
    Hashtbl.fold
      (fun header sources acc ->
        let body = Hashtbl.create 8 in
        Hashtbl.replace body header ();
        let rec pull b =
          if not (Hashtbl.mem body b) then begin
            Hashtbl.replace body b ();
            List.iter pull preds.(b)
          end
        in
        List.iter pull sources;
        Hashtbl.iter (fun b () -> nest.(b) <- nest.(b) + 1) body;
        { header; body; back_edges = sources } :: acc)
      by_header []
  in
  let depth = Hashtbl.create 16 in
  Fn.iter_blocks (fun blk -> Hashtbl.replace depth blk.b_id nest.(blk.b_id)) fn;
  { loops; depth }

let compute (fn : fn) : t = of_dominators fn (Dominators.compute fn)

let depth t b = try Hashtbl.find t.depth b with Not_found -> 0

let is_header t b = List.exists (fun l -> l.header = b) t.loops
