(** Dominator tree (Cooper–Harvey–Kennedy), over blocks reachable from the
    entry. *)

open Types

type t

val compute : fn -> t

val idom : t -> bid -> bid option
(** Immediate dominator; the entry maps to itself. [None] for unreachable
    blocks. *)

val dominates : t -> a:bid -> b:bid -> bool
(** Reflexive: [dominates ~a ~b:a] holds. *)

val children : t -> bid -> bid list
(** Children in the dominator tree, ascending. *)

val rpo : t -> bid list
(** The reverse postorder the tree was computed over. *)

val rpo_index : t -> bid -> int
(** Position in {!rpo}; -1 for unreachable blocks. *)

val reachable : t -> bid -> bool

val preds : t -> bid list array
(** The predecessor map the tree was computed over. *)
