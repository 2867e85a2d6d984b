(* Relative block-frequency estimation.

   The inliner's callsite frequency f(n) (paper, Section IV) is the
   frequency of the block containing the callsite relative to one entry of
   the enclosing method. Two sources:

   - profiled: the interpreter records per-block execution counts; the
     relative frequency is count(b)/count(entry). This mirrors the JVM
     branch/backedge profile information Graal consumes.
   - static: when a method was never interpreted (e.g. discovered only via
     expansion), estimate by propagating branch probability 0.5 along
     acyclic edges and multiplying by a loop factor per nesting depth.

   Copies of a method's IR preserve block ids, so profile lookups keyed by
   (method, block) remain valid on the specialized copies the call tree
   holds. *)

open Types

let loop_multiplier = 8.0

(* Block frequencies by block id, with the owning block of every placed
   instruction so [of_instr] is one lookup. *)
type t = { by_block : float array; owner : int array }

let make (fn : fn) (by_block : float array) : t =
  let owner = Array.make (Support.Vec.length fn.instrs) (-1) in
  Fn.iter_blocks (fun blk -> List.iter (fun v -> owner.(v) <- blk.b_id) blk.instrs) fn;
  { by_block; owner }

let static (fn : fn) : t =
  let doms = Dominators.compute fn in
  let loops = Loops.of_dominators fn doms in
  let preds = Dominators.preds doms in
  let index = Dominators.rpo_index doms in
  let order = Dominators.rpo doms in
  (* acyclic propagation: ignore edges that go backwards in RPO *)
  let freq = Array.make (Array.length preds) 0.0 in
  List.iter
    (fun b ->
      freq.(b) <-
        (if b = fn.entry then 1.0
         else
           List.fold_left
             (fun acc p ->
               let ip = index p in
               if ip < 0 || ip >= index b then acc
               else
                 let prob = match Fn.term fn p with If _ -> 0.5 | _ -> 1.0 in
                 acc +. (freq.(p) *. prob))
             0.0 preds.(b)))
    order;
  (* amplify by loop nesting *)
  List.iter
    (fun b ->
      let d = Loops.depth loops b in
      if d > 0 then freq.(b) <- freq.(b) *. (loop_multiplier ** float_of_int d))
    order;
  make fn freq

(* [profiled fn ~counts] uses per-block execution counts when the entry has
   been observed; falls back to [static] otherwise. *)
let profiled (fn : fn) ~(counts : bid -> float) : t =
  let entry_count = counts fn.entry in
  if entry_count <= 0.0 then static fn
  else begin
    let freq = Array.make (Support.Vec.length fn.blocks) 0.0 in
    Fn.iter_blocks (fun blk -> freq.(blk.b_id) <- counts blk.b_id /. entry_count) fn;
    make fn freq
  end

let block (t : t) (b : bid) : float =
  if b >= 0 && b < Array.length t.by_block then t.by_block.(b) else 0.0

(* Frequency of the block containing instruction [v]. *)
let of_instr (t : t) (v : vid) : float =
  if v >= 0 && v < Array.length t.owner then block t t.owner.(v) else 0.0
