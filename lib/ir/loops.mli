(** Natural-loop discovery from dominator-identified back edges. *)

open Types

type loop = {
  header : bid;
  body : (bid, unit) Hashtbl.t;  (** includes the header *)
  back_edges : bid list;         (** sources of back edges into [header] *)
}

type t = {
  loops : loop list;
      (** the fold order of a header-keyed [Hashtbl] filled in block order;
          passes that take "the first unprocessed loop" depend on it *)
  depth : (bid, int) Hashtbl.t;  (** nesting depth; 0 outside any loop *)
}

val compute : fn -> t

val of_dominators : fn -> Dominators.t -> t
(** {!compute} over an existing dominator tree of the function as it is,
    sharing its reverse postorder and predecessor map. *)

val depth : t -> bid -> int
val is_header : t -> bid -> bool
