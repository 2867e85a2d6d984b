(* Global value numbering over the dominator tree (Briggs-style scoped
   hashing): pure instructions with identical operation and operands are
   collapsed to the first dominating occurrence. Array lengths participate
   (array lengths are immutable); loads do not (fields and elements are
   mutable). *)

open Ir.Types

(* The structural key of a numberable instruction. Phis are excluded
   (their meaning depends on control flow); commutative operators are
   normalized by sorting operands. *)
type key =
  | K_const of const
  | K_binop of binop * vid * vid
  | K_unop of unop * vid
  | K_typetest of vid * class_id
  | K_arraylen of vid
  | K_intrinsic of intrinsic * vid list

let commutative = function
  | Add | Mul | Band | Bor | Bxor | Eq | Ne | Andb | Orb | Xorb | Eqb -> true
  | Sub | Div | Rem | Shl | Shr | Lt | Le | Gt | Ge -> false

let key_of (k : instr_kind) : key option =
  match k with
  | Const c -> Some (K_const c)
  | Binop (op, a, b) ->
      if commutative op && b < a then Some (K_binop (op, b, a)) else Some (K_binop (op, a, b))
  | Unop (op, a) -> Some (K_unop (op, a))
  | TypeTest { obj; cls } -> Some (K_typetest (obj, cls))
  | ArrayLen a -> Some (K_arraylen a)
  | Intrinsic (i, args) when Ir.Instr.is_pure k -> Some (K_intrinsic (i, args))
  | _ -> None

let run (fn : fn) : int =
  let doms = Ir.Dominators.compute fn in
  let table : (key, vid) Hashtbl.t = Hashtbl.create 64 in
  let replaced = ref 0 in
  let rec walk (b : bid) =
    let blk = Ir.Fn.block fn b in
    let added = ref [] in
    List.iter
      (fun v ->
        if Ir.Fn.instr_live fn v then
          match key_of (Ir.Fn.kind fn v) with
          | Some key -> (
              match Hashtbl.find_opt table key with
              | Some v' when v' <> v ->
                  Ir.Fn.replace_uses fn ~old_v:v ~new_v:v';
                  Ir.Fn.delete_instr ~block:b fn v;
                  incr replaced
              | Some _ -> ()
              | None ->
                  Hashtbl.add table key v;
                  added := key :: !added)
          | None -> ())
      blk.instrs;
    List.iter walk (Ir.Dominators.children doms b);
    List.iter (fun key -> Hashtbl.remove table key) !added
  in
  walk fn.entry;
  !replaced
