(* Reference type inference: the original hash-table fixpoint behind
   [Opt.Tyinfer.infer]. It is the behaviour the array-backed environment
   must reproduce exactly, for live, dead and out-of-range vids alike.
   [mismatch] below compares the two. *)

open Ir.Types
open Opt.Tyinfer

type env = (vid, vt) Hashtbl.t

let transfer (prog : program) (fn : fn) (env : env) (i : instr) : vt =
  let get v = match Hashtbl.find_opt env v with Some x -> x | None -> Vt_bot in
  match i.kind with
  | Const (Cint _) -> Vt_prim Tint
  | Const (Cbool _) -> Vt_prim Tbool
  | Const (Cstring _) -> Vt_prim Tstring
  | Const Cunit -> Vt_prim Tunit
  | Const Cnull -> Vt_null
  | Param k ->
      if k < Array.length fn.spec_tys then of_ty fn.spec_tys.(k) else Vt_top
  | Unop _ | Binop _ -> of_ty (Ir.Fn.result_ty fn i.kind)
  | Phi { inputs; _ } ->
      List.fold_left (fun acc (_, v) -> join prog acc (get v)) Vt_bot inputs
  | Call { rty; _ } -> of_ty rty
  | New c -> Vt_obj { cls = c; exact = true; nonnull = true }
  | GetField { fty; _ } -> of_ty fty
  | SetField _ -> Vt_prim Tunit
  | NewArray { ety; _ } -> Vt_arr ety
  | ArrayGet { ety; _ } -> of_ty ety
  | ArraySet _ -> Vt_prim Tunit
  | ArrayLen _ -> Vt_prim Tint
  | TypeTest _ -> Vt_prim Tbool
  | Intrinsic _ -> of_ty (Ir.Fn.result_ty fn i.kind)

let infer (prog : program) (fn : fn) : env =
  let env : env = Hashtbl.create 64 in
  let changed = ref true in
  while !changed do
    changed := false;
    Ir.Fn.iter_instrs
      (fun i ->
        let nv = transfer prog fn env i in
        let ov = match Hashtbl.find_opt env i.id with Some x -> x | None -> Vt_bot in
        let joined = join prog ov nv in
        if joined <> ov then begin
          Hashtbl.replace env i.id joined;
          changed := true
        end)
      fn
  done;
  env

let value_type (env : env) (v : vid) : vt =
  match Hashtbl.find_opt env v with Some x -> x | None -> Vt_top

let pp_vt ppf = function
  | Vt_bot -> Fmt.string ppf "bot"
  | Vt_prim ty -> Fmt.pf ppf "prim %a" Ir.Printer.pp_ty ty
  | Vt_null -> Fmt.string ppf "null"
  | Vt_obj { cls; exact; nonnull } ->
      Fmt.pf ppf "obj c%d%s%s" cls (if exact then " exact" else "")
        (if nonnull then " nonnull" else "")
  | Vt_arr ty -> Fmt.pf ppf "arr %a" Ir.Printer.pp_ty ty
  | Vt_top -> Fmt.string ppf "top"

(* The first vid whose type differs, from one below the instruction store
   to two past its end. *)
let mismatch (prog : program) (fn : fn) : string option =
  let fast = Opt.Tyinfer.infer prog fn and slow = infer prog fn in
  let n = Support.Vec.length fn.instrs in
  let rec go v =
    if v > n + 1 then None
    else
      let a = Opt.Tyinfer.value_type fast v and b = value_type slow v in
      if a = b then go (v + 1)
      else
        Some
          (Fmt.str "v%d (%s): array-backed %a, reference %a" v
             (if v < 0 || v >= n then "out of range"
              else if Ir.Fn.instr_live fn v then "live"
              else "dead")
             pp_vt a pp_vt b)
  in
  go (-1)
