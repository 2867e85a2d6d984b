(** Relative block-frequency estimation: the basis for the inliner's
    callsite frequency f(n). Profile-driven when execution counts exist,
    otherwise a static estimate (branch probability 0.5, ×{!loop_multiplier}
    per loop-nesting level). *)

open Types

val loop_multiplier : float

type t
(** Frequencies of one function state, by block and by instruction. *)

val static : fn -> t
(** Entry-relative frequency per reachable block, structural estimate. *)

val profiled : fn -> counts:(bid -> float) -> t
(** [counts b / counts entry] per block; falls back to {!static} when the
    entry was never observed. *)

val block : t -> bid -> float
(** 0 for unreachable or unknown blocks. *)

val of_instr : t -> vid -> float
(** Frequency of the block that held the instruction when [t] was computed
    (0 if unplaced). *)
