(* Per-layer accounting for the traced run, measured from outside the
   program: wall-clock timers and counts around calls into each layer's
   public functions. Nothing under lib/ is instrumented; instead this file
   carries a copy of the incremental inliner's round loop
   ([Inliner.Algorithm.compile]) and of the per-round root treatment
   ([Opt.Driver.round_root_opts]) with a timer around every phase. The
   copies must install exactly the code the library versions install;
   the benchmark checks that on every (program, config) of every traced
   pass, so a drift in either copy shows as a failure, not as a skew. *)

let now = Unix.gettimeofday

(* Accumulators keyed by per-layer metric name. Times are kept in seconds
   and counts as floats; [Main] turns them into the printed units. *)
let acc : (string, float) Hashtbl.t = Hashtbl.create 64

let reset () = Hashtbl.reset acc
let get name = Option.value (Hashtbl.find_opt acc name) ~default:0.0
let add name v = Hashtbl.replace acc name (get name +. v)
let count name n = add name (float_of_int n)

let time name f =
  let t0 = now () in
  Fun.protect ~finally:(fun () -> add name (now () -. t0)) f

(* [Opt.Driver.round_root_opts], pass by pass. *)
let round_root_opts (p : Inliner.Params.t) prog fn : Opt.Driver.stats =
  let stats = time "opt.simplify" (fun () -> Opt.Driver.simplify prog fn) in
  Support.Fuel.spend 1;
  let pass on name f = if on then time name f else 0 in
  let rw = pass p.opt_rwelim "opt.rwelim" (fun () -> Opt.Rwelim.run prog fn) in
  stats.rw_eliminated <- stats.rw_eliminated + rw;
  let scalar = pass p.opt_scalar "opt.scalar" (fun () -> Opt.Scalarrepl.run prog fn) in
  stats.scalar_replaced <- stats.scalar_replaced + scalar;
  let hoisted = pass p.opt_licm "opt.licm" (fun () -> Opt.Licm.run fn) in
  stats.licm_hoisted <- stats.licm_hoisted + hoisted;
  let peeled = pass p.opt_peel "opt.peel" (fun () -> Opt.Peel.run prog fn) in
  stats.loops_peeled <- stats.loops_peeled + peeled;
  if rw > 0 || scalar > 0 || hoisted > 0 || peeled > 0 then begin
    let s2 = time "opt.simplify" (fun () -> Opt.Driver.simplify prog fn) in
    Opt.Canonicalize.add_into ~into:stats.canon s2.canon;
    stats.gvn_hits <- stats.gvn_hits + s2.gvn_hits;
    stats.dce_removed <- stats.dce_removed + s2.dce_removed
  end;
  stats

(* [Inliner.Algorithm.compile] with phase timers. Under a fuel budget the
   library version keeps per-round snapshots to fall back on; no workload
   here runs with one, so that path defers to the library unchanged. *)
let compile ~trial_cache prog profiles (params : Inliner.Params.t) root : Ir.Types.fn =
  if Support.Fuel.enabled () then
    (Inliner.Algorithm.compile ~trial_cache prog profiles params root).body
  else begin
    let t =
      time "inliner.create" (fun () ->
          Inliner.Calltree.create ~trial_cache prog profiles params root)
    in
    let rounds = ref 0 and changed = ref true in
    while
      !changed && !rounds < params.max_rounds
      && Ir.Fn.size t.root_fn < params.root_size_cap
    do
      Support.Fuel.spend 1;
      incr rounds;
      let expanded = time "inliner.expand" (fun () -> Inliner.Expansion.run t) in
      time "inliner.analyze" (fun () -> Inliner.Analysis.run t);
      let inlined = time "inliner.inline" (fun () -> Inliner.Inline_phase.run t) in
      let s = round_root_opts params prog t.root_fn in
      count "opt.simple_opts" (Opt.Driver.simple_opt_count s);
      count "opt.licm_hoisted" s.licm_hoisted;
      count "opt.loops_peeled" s.loops_peeled;
      count "inliner.expanded" expanded;
      count "inliner.inlined" inlined;
      time "inliner.refresh" (fun () -> Inliner.Calltree.refresh t);
      changed := expanded > 0 || inlined > 0
    done;
    count "inliner.rounds" !rounds;
    t.root_fn
  end

let phases =
  [ "inliner.create"; "inliner.expand"; "inliner.analyze"; "inliner.inline";
    "inliner.refresh"; "opt.simplify"; "opt.rwelim"; "opt.scalar"; "opt.licm";
    "opt.peel" ]

(* Words allocated so far by this process (minor plus direct major, with
   promotions counted once). *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted
