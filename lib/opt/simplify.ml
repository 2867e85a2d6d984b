(* CFG cleanup: unreachable-block removal, phi pruning and trivial-phi
   elimination, and straight-line block merging. Runs after passes that
   rewrite terminators (branch pruning, inlining) to restore a minimal
   CFG, which keeps the paper's |ir| size metric honest. *)

open Ir.Types

(* Removes blocks unreachable from the entry, pruning the phi inputs of the
   survivors. Returns true when anything changed. *)
let remove_unreachable (fn : fn) : bool =
  let reachable = Ir.Fn.reachable fn in
  let changed = ref false in
  (* prune phi edges coming from dead predecessors *)
  Ir.Fn.iter_blocks
    (fun blk ->
      if reachable.(blk.b_id) then
        List.iter
          (fun v ->
            match Ir.Fn.kind fn v with
            | Phi p ->
                let keep = List.filter (fun (pb, _) -> reachable.(pb)) p.inputs in
                if List.length keep <> List.length p.inputs then begin
                  p.inputs <- keep;
                  changed := true
                end
            | _ -> ())
          blk.instrs)
    fn;
  let dead = ref [] in
  Ir.Fn.iter_blocks
    (fun blk -> if not reachable.(blk.b_id) then dead := blk.b_id :: !dead)
    fn;
  List.iter
    (fun b ->
      Ir.Fn.delete_block fn b;
      changed := true)
    !dead;
  !changed

(* Replaces phis whose inputs are all the same value (ignoring self) with
   that value. Returns true when anything changed. *)
let remove_trivial_phis (fn : fn) : bool =
  let changed = ref false in
  let progress = ref true in
  while !progress do
    progress := false;
    let phis = ref [] in
    Ir.Fn.iter_blocks
      (fun blk ->
        List.iter
          (fun v ->
            let i = Ir.Fn.instr fn v in
            match i.kind with Phi _ -> phis := (blk.b_id, i) :: !phis | _ -> ())
          blk.instrs)
      fn;
    List.iter
      (fun (b, (i : instr)) ->
        if Ir.Fn.instr_live fn i.id then
          match i.kind with
          | Phi { inputs; _ } -> (
              let ops =
                List.map snd inputs
                |> List.filter (fun v -> v <> i.id)
                |> List.sort_uniq compare
              in
              match ops with
              | [ v ] ->
                  Ir.Fn.replace_uses fn ~old_v:i.id ~new_v:v;
                  Ir.Fn.delete_instr ~block:b fn i.id;
                  progress := true;
                  changed := true
              | _ -> ())
          | _ -> ())
      !phis
  done;
  !changed

(* Merges a block with its unique successor when that successor has no
   other predecessor. Phis in the successor are trivial in that situation
   and must have been removed first. Returns true when anything changed.

   Merges go highest candidate block first. Merging [s] into [b] can only
   change whether [b] itself is a candidate ([b] takes over [s]'s
   terminator, and [b] replaces [s] among its successors' predecessors),
   so one scan plus a re-check of [b] after each merge visits the
   candidates in the order a rescan after every merge would. *)
let merge_blocks (fn : fn) : bool =
  let preds = Ir.Fn.preds fn in
  let target (blk : block) =
    match blk.term with
    | Goto s when s <> fn.entry && s <> blk.b_id && preds.(s) = [ blk.b_id ] -> Some s
    | _ -> None
  in
  let merge b s =
    let blk = Ir.Fn.block fn b in
    let sblk = Ir.Fn.block fn s in
    (* any phi here must be single-input; resolve it *)
    List.iter
      (fun v ->
        match Ir.Fn.kind fn v with
        | Phi { inputs = [ (_, pv) ]; _ } ->
            Ir.Fn.replace_uses fn ~old_v:v ~new_v:pv;
            Ir.Fn.delete_instr ~block:s fn v
        | Phi _ -> invalid_arg "Simplify.merge_blocks: non-trivial phi in merge target"
        | _ -> ())
      sblk.instrs;
    blk.instrs <- blk.instrs @ sblk.instrs;
    blk.term <- sblk.term;
    (* successors' phis and predecessor lists must now name [b] *)
    let rename pb = if pb = s then b else pb in
    List.iter
      (fun succ ->
        List.iter
          (fun v ->
            match Ir.Fn.kind fn v with
            | Phi p -> p.inputs <- List.map (fun (pb, pv) -> (rename pb, pv)) p.inputs
            | _ -> ())
          (Ir.Fn.block fn succ).instrs;
        preds.(succ) <- List.sort compare (List.map rename preds.(succ)))
      (Ir.Fn.succs_of_term sblk.term);
    preds.(s) <- [];
    sblk.instrs <- [];
    Ir.Fn.delete_block fn s
  in
  let candidates =
    Ir.Fn.fold_blocks (fun acc blk -> if target blk <> None then blk.b_id :: acc else acc) [] fn
  in
  let rec drain = function
    | [] -> ()
    | b :: rest when Ir.Fn.block_live fn b -> (
        match target (Ir.Fn.block fn b) with
        | Some s ->
            merge b s;
            drain (b :: rest)
        | None -> drain rest)
    | _ :: rest -> drain rest
  in
  drain candidates;
  candidates <> []

let cleanup (fn : fn) : bool =
  let a = remove_unreachable fn in
  let b = remove_trivial_phis fn in
  let c = merge_blocks fn in
  a || b || c
