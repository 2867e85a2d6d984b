(** Human-readable IR dumps. {!Parse.parse_fn} reads this format back, so
    [pp_fn] output round-trips. *)

open Types

val pp_ty : Format.formatter -> ty -> unit
val ty_to_string : ty -> string
val pp_const : Format.formatter -> const -> unit
val binop_name : binop -> string
val unop_name : unop -> string
val intrinsic_name : intrinsic -> string
val pp_v : Format.formatter -> vid -> unit
val pp_b : Format.formatter -> bid -> unit
val pp_site : Format.formatter -> site -> unit
val pp_callee : Format.formatter -> callee -> unit
val pp_kind : Format.formatter -> instr_kind -> unit
val pp_term : Format.formatter -> terminator -> unit
val pp_fn : Format.formatter -> fn -> unit
val fn_to_string : fn -> string
val pp_program : Format.formatter -> program -> unit
