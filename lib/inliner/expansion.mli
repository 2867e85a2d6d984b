(** The expansion phase (paper, Section III-B and IV): descend from the
    root by priority P(n) = P_I(n) − ψ(n) to the most promising cutoff and
    expand it if it passes the (adaptive or fixed) expansion threshold. *)

open Calltree

val psi_r : node -> float
(** Recursion penalty ψ_r (Eq. 14). *)

val psi : t -> node -> float
(** Exploration penalty ψ (Eq. 7): grows with the subtree's attached and
    prospective size, softened when few cutoffs remain. *)

val has_candidate : node -> bool
(** The subtree holds a cutoff not declined this phase. *)

val intrinsic_priority : t -> node -> float
(** P_I (Eq. 5): benefit per node for cutoffs, max over children for
    expanded/poly nodes (ignoring exhausted subtrees). *)

val priority : t -> node -> float
(** P = P_I − ψ (Eq. 6). *)

(** {1 Cached aggregates}

    [psi], [intrinsic_priority] and [priority] recurse over the whole
    subtree; they are the specification. {!run} keeps each node's
    candidate flag, P_I, S_ir, S_b and N_c in the node's fields instead,
    computed for the whole tree when the phase starts and, after each
    step, recombined for the touched node and the ancestors the descent
    passed. The cached values are bit-identical to the specification's. *)

val cached_priority : t -> node -> float
(** P from the node's cached aggregates. *)

val best_cutoff : t -> node list
(** The descent path by cached priority: the cutoff it reaches first,
    then each ancestor up to a child of the root; [[]] when the tree is
    exhausted for this phase. Requires valid cached aggregates. *)

val may_expand : t -> node -> bool
(** Adaptive: B_L/|ir| ≥ e^((S_ir(root) − r1)/r2) (Eq. 8). Fixed policy:
    the total call-tree size is still below T_e. *)

val run : t -> int
(** One expansion phase; returns the number of nodes expanded. Bounded by
    [max_expansions_per_round]. *)
