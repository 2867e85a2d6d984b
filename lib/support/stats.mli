(** Statistics helpers for the benchmark harness. *)

val mean : float list -> float
(** @raise Invalid_argument on an empty list. *)

val stddev : float list -> float
(** Sample standard deviation; 0 for fewer than two samples. *)

val geomean : float list -> float
(** Geometric mean.
    @raise Invalid_argument on empty input or non-positive values. *)

val min_max : float list -> float * float
(** @raise Invalid_argument on an empty list. *)

val steady_state_window : float list -> float list
(** The last 40% of the samples capped at 20, mirroring the paper's
    peak-performance methodology ("average of the last 40%, but at most 20,
    repetitions").
    @raise Invalid_argument on an empty list. *)

val percentile : int list -> float -> int
(** Exact rank percentile of an {b ascending} int list: the smallest
    element whose rank reaches [ceil (q * n)]; 0 when the list is empty.
    Shared by {!Jit.Serve} and the timeline's fleet snapshots. *)

val percentiles : int list -> int * int * int * int
(** [(p50, p90, p99, max)] of an ascending int list, all 0 when empty. *)
