(* Global value numbering over the dominator tree (Briggs-style scoped
   hashing): pure instructions with identical operation and operands are
   collapsed to the first dominating occurrence. Array lengths participate
   (array lengths are immutable); loads do not (fields and elements are
   mutable). *)

open Ir.Types

(* A structural key for numberable instructions. Phis are excluded (their
   meaning depends on control flow); commutative operators are normalized
   by sorting operands. *)
let key_of (k : instr_kind) : string option =
  let commutative = function
    | Add | Mul | Band | Bor | Bxor | Eq | Ne | Andb | Orb | Xorb | Eqb -> true
    | Sub | Div | Rem | Shl | Shr | Lt | Le | Gt | Ge -> false
  in
  match k with
  | Const c -> Some (Fmt.str "c:%a" Ir.Printer.pp_const c)
  | Binop (op, a, b) ->
      let a, b = if commutative op && b < a then (b, a) else (a, b) in
      Some (Printf.sprintf "b:%s:%d:%d" (Ir.Printer.binop_name op) a b)
  | Unop (op, a) -> Some (Printf.sprintf "u:%s:%d" (Ir.Printer.unop_name op) a)
  | TypeTest { obj; cls } -> Some (Printf.sprintf "tt:%d:%d" obj cls)
  | ArrayLen a -> Some (Printf.sprintf "al:%d" a)
  | Intrinsic (i, args) when Ir.Instr.is_pure k ->
      Some
        (Printf.sprintf "i:%s:%s" (Ir.Printer.intrinsic_name i)
           (String.concat "," (List.map string_of_int args)))
  | _ -> None

let run (fn : fn) : int =
  let doms = Ir.Dominators.compute fn in
  let table : (string, vid) Hashtbl.t = Hashtbl.create 64 in
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
