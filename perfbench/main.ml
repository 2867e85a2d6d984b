(* The repository's benchmark: tiered runs of the workload registry through
   the public API, timed end to end, with every output checked against an
   oracle that is not the compiler under test.

     main.exe --workload warmup|steady|serve-churn --seed N --seconds S
              --trace 0|1

   A run repeats passes over its workload's whole program set for about
   [--seconds]. The last line of stdout is one JSON object: end-to-end
   metrics with [--trace 0], per-layer metrics (see layers.ml) with
   [--trace 1]. The exit code is 1 when any run failed its oracle, its
   determinism check or, when traced, its equality check against the
   untraced passes. README.md describes the workloads, the estimators and
   which layer metric should move which end-to-end metric. *)

let now = Unix.gettimeofday

(* as bench/common.ml: the paper's warm-up regime *)
let hotness = 8
let cost_per_node = 50
let warmup_iters = 12
let steady_factor = 4
let fleet_size = 8
let queue_capacity = 4
let queue_age_unit = 1024

type cfg = Incremental | Greedy | C2like

let cfg_label = function
  | Incremental -> "incremental"
  | Greedy -> "greedy"
  | C2like -> "c2-like"

let words_to_mb w = w *. float_of_int (Sys.word_size / 8) /. 1048576.0

(* ---------- passes and units ---------- *)

(* Wall-clock record of one unit of a pass: a (program, config) run on
   warmup and steady, one fleet on serve-churn. Every pass runs the same
   units in the same order, each unit runs the same pieces (benchmark
   iterations; a whole fleet on serve-churn) and issues the same compile
   requests in the same order — the determinism check below holds them to
   it — so a piece or request can be compared across passes. *)
type utime = {
  mutable setup : float;  (* frontend + Engine.create *)
  mutable compile : float;  (* running total inside compiler calls *)
  mutable pieces : (float * float) list;
      (* (wall, compile inside it) per piece, most recent first *)
  mutable lat : float list;  (* per compile request, s, most recent first *)
  mutable probe : float;  (* host-speed probe around the unit, s *)
}

let new_utime () = { setup = 0.0; compile = 0.0; pieces = []; lat = []; probe = 0.0 }

type pass = {
  mutable cur : utime;
  mutable units : utime list;  (* most recent first *)
  mutable iters : int;
  mutable steps : int;
  mutable sim_cycles : int;
  mutable compile_cycles : int;
  mutable code_size : int;
  mutable peaks : float list;
  measure_live : bool;  (* first pass only *)
  mutable live_base : float;
  mutable live_peak_words : float;
  mutable layers : (string * float) list;  (* traced passes only *)
}

let new_pass ~measure_live =
  { cur = new_utime (); units = []; iters = 0; steps = 0; sim_cycles = 0;
    compile_cycles = 0; code_size = 0; peaks = []; measure_live; live_base = 0.0;
    live_peak_words = 0.0; layers = [] }

(* Host-speed probe. On a shared host the same deterministic work can take
   up to twice as long from one second to the next, and its best time
   drifts by 15% over minutes, with this process on the CPU all along. So
   every unit is bracketed by a fixed loop that never touches the program
   under test (dependent loads over a 512 KiB table plus short-lived
   allocation, best of 3, about 1 ms each), and the unit's times are
   scaled by [ref_probe] over the mean of its two probes: they read as
   seconds on a host where the probe takes exactly 1 ms. *)
let ref_probe = 1e-3

let probe_table = Array.init 65536 (fun i -> i * 7919 land 65535)

let probe_once () =
  let t0 = now () in
  let j = ref 0 and s = ref 0 and live = ref [] in
  for k = 1 to 100_000 do
    j := probe_table.(!j lxor (k land 1023));
    s := !s + !j;
    if k land 15 = 0 then live := (!s, k) :: (if k land 1023 = 0 then [] else !live)
  done;
  ignore (Sys.opaque_identity (!s, !live));
  now () -. t0

let probe () = Float.min (probe_once ()) (Float.min (probe_once ()) (probe_once ()))

(* Each unit starts on a collected heap, so the garbage one unit leaves is
   not collected on the next unit's clock, whatever order the seed chose. *)
let begin_unit p =
  Gc.full_major ();
  if p.measure_live then p.live_base <- float_of_int (Gc.stat ()).live_words;
  p.cur <- new_utime ();
  p.cur.probe <- probe ()

let end_unit p =
  p.cur.probe <- (p.cur.probe +. probe ()) /. 2.0;
  p.units <- p.cur :: p.units

(* What a unit added to the live major heap while [what] is still
   reachable, after a full collection: the engine's own footprint, not
   the benchmark's bookkeeping, which grows along the pass. Measured on
   the first pass only, outside the timed parts. *)
let sample_live p what =
  if p.measure_live then begin
    Gc.full_major ();
    p.live_peak_words <-
      Float.max p.live_peak_words (float_of_int (Gc.stat ()).live_words -. p.live_base);
    ignore (Sys.opaque_identity what)
  end

(* ---------- failures ---------- *)

let attempted = ref 0
let failed = ref 0

let fail fmt =
  incr failed;
  Printf.printf ("FAIL " ^^ fmt ^^ "\n%!")

(* Every (program, config) run or tenant leaves a record of its simulated
   results. The first pass's record is the reference: every later pass,
   traced or not, must reproduce it byte for byte. *)
let reference : (string, string) Hashtbl.t = Hashtbl.create 128

let check_reference key record =
  match Hashtbl.find_opt reference key with
  | None -> Hashtbl.add reference key record
  | Some r0 -> if r0 <> record then fail "%s: simulated results differ between passes" key

(* ---------- compilers and engines ---------- *)

(* Every compile request goes through this wrapper: per-request wall
   clock, and when traced, per-config time, request count and GC words
   allocated inside the compiler. *)
let timed_compiler ~traced (p : pass) cfg (c : Jit.Engine.compiler) : Jit.Engine.compiler =
 fun prog prof m ->
  let a0 = if traced then Layers.alloc_words () else 0.0 in
  let t0 = now () in
  Fun.protect
    (fun () -> c prog prof m)
    ~finally:(fun () ->
      let dt = now () -. t0 in
      p.cur.compile <- p.cur.compile +. dt;
      p.cur.lat <- dt :: p.cur.lat;
      if traced then begin
        Layers.add
          (match cfg with
          | Incremental -> "compile.incremental"
          | Greedy -> "baselines.greedy"
          | C2like -> "baselines.c2like")
          dt;
        Layers.count "jit.compiles" 1;
        Layers.add "jit.compile_alloc_words" (Layers.alloc_words () -. a0)
      end)

let compiler ~traced p cfg (tc : Inliner.Trial_cache.t) : Jit.Engine.compiler =
  let c : Jit.Engine.compiler =
    match cfg with
    | Incremental when traced ->
        fun prog prof m -> Layers.compile ~trial_cache:tc prog prof Inliner.Params.default m
    | Incremental ->
        fun prog prof m ->
          (Inliner.Algorithm.compile ~trial_cache:tc prog prof Inliner.Params.default m).body
    | Greedy -> fun prog prof m -> Baselines.Greedy.compile prog prof m
    | C2like -> fun prog prof m -> Baselines.C2like.compile prog prof m
  in
  timed_compiler ~traced p cfg c

let engine_config ~traced p cfg tc : Jit.Engine.config =
  { name = cfg_label cfg; compiler = Some (compiler ~traced p cfg tc);
    hotness_threshold = hotness; compile_cost_per_node = cost_per_node; verify = false }

(* Frontend plus prepare; traced runs time the two apart (prepare is
   idempotent, so the copy inside Engine.create finds nothing to do). *)
let frontend ~traced (w : Workloads.Defs.t) =
  if not traced then Workloads.Registry.compile w
  else begin
    let prog = Layers.time "frontend" (fun () -> Workloads.Registry.compile w) in
    Layers.count "frontend.ir_nodes" (Ir.Program.total_ir_size prog);
    Layers.time "opt.prepare" (fun () -> Opt.Driver.prepare_program prog);
    prog
  end

(* inline-cache and superinstruction totals of an engine *)
type dispatch = { ic_hits : int; ic_dispatches : int; ic_mega : int; fused : int }

let dispatch_of (e : Jit.Engine.t) =
  let ics = Jit.Engine.ic_stats e in
  let sum f = List.fold_left (fun a st -> a + f st) 0 ics in
  { ic_hits = sum (fun st -> st.Runtime.Interp.st_hits);
    ic_dispatches = sum (fun st -> st.st_hits + st.st_misses + st.st_mega);
    ic_mega = sum (fun st -> st.st_mega);
    fused =
      List.fold_left
        (fun a (s : Runtime.Interp.sstat) -> a + s.ss_sites)
        0 (Jit.Engine.superinst_stats e) }

let count_dispatch d =
  Layers.count "runtime.ic_hits" d.ic_hits;
  Layers.count "runtime.ic_dispatches" d.ic_dispatches;
  Layers.count "runtime.ic_megamorphic" d.ic_mega;
  Layers.count "runtime.fused_sites" d.fused

let trial_stats tc =
  let hits, misses, _ = Inliner.Trial_cache.stats tc in
  Layers.count "inliner.trial_hits" hits;
  Layers.count "inliner.trial_misses" misses

(* ---------- warmup and steady: one engine per (program, config) ---------- *)

type item = { w : Workloads.Defs.t; cfg : cfg; iters : int }

let item_key it = it.w.name ^ "/" ^ cfg_label it.cfg

(* [Jit.Harness.run_benchmark]'s loop with a clock around every
   iteration: the same [Engine.run_meth] calls and end-of-run flush, and
   the paper's peak cycles from the same [Support.Stats] window. Returns
   the peak. *)
let harness (p : pass) (e : Jit.Engine.t) ~iters =
  let series = ref [] in
  for _ = 1 to iters do
    let c0 = e.vm.cycles and k0 = p.cur.compile in
    let t0 = now () in
    ignore (Jit.Engine.run_meth e "bench" [ Runtime.Values.Vunit ]);
    let dt = now () -. t0 in
    p.cur.pieces <- (dt, p.cur.compile -. k0) :: p.cur.pieces;
    series := float_of_int (e.vm.cycles - c0) :: !series
  done;
  ignore (Jit.Engine.flush_pending e);
  Support.Stats.(mean (steady_state_window (List.rev !series)))

let run_item ~traced (p : pass) (it : item) =
  incr attempted;
  begin_unit p;
  let tc = Inliner.Trial_cache.create () in
  let calloc0 = Layers.get "jit.compile_alloc_words" in
  let outcome =
    match
      let t0 = now () in
      let prog = frontend ~traced it.w in
      let engine = Jit.Engine.create prog (engine_config ~traced p it.cfg tc) in
      p.cur.setup <- now () -. t0;
      let a0 = if traced then Layers.alloc_words () else 0.0 in
      let peak = harness p engine ~iters:it.iters in
      if traced then
        Layers.add "runtime.exec_alloc_words"
          (Layers.alloc_words () -. a0 -. (Layers.get "jit.compile_alloc_words" -. calloc0));
      (engine, peak)
    with
    | exception e -> Error e
    | v -> Ok v
  in
  end_unit p;
  match outcome with
  | Error e -> fail "%s: %s" (item_key it) (Printexc.to_string e)
  | Ok (engine, peak) ->
      sample_live p engine;
      let vm = engine.vm in
      let cycles = vm.cycles and steps = vm.steps in
      let code_size = Jit.Engine.installed_code_size engine in
      p.iters <- p.iters + it.iters;
      p.steps <- p.steps + steps;
      p.sim_cycles <- p.sim_cycles + cycles;
      p.compile_cycles <- p.compile_cycles + engine.compile_cycles;
      p.code_size <- p.code_size + code_size;
      p.peaks <- peak :: p.peaks;
      if traced then begin
        Layers.count "jit.installs" (List.length engine.compilations);
        Layers.count "jit.invalidations" (List.length engine.invalidations);
        Layers.count "jit.bailouts" (List.length engine.bailouts);
        Layers.count "jit.osr_enters" engine.osr_enters;
        Layers.count "jit.resident" (Jit.Engine.installed_methods engine);
        Layers.count "runtime.steps" steps;
        count_dispatch (dispatch_of engine);
        if it.cfg = Incremental then trial_stats tc
      end;
      (* oracle, after timing: main() must print the pinned output *)
      let before = String.length (Jit.Engine.output engine) in
      (match Jit.Engine.run_main engine with
      | exception e -> fail "%s: main() raised %s" (item_key it) (Printexc.to_string e)
      | _ ->
          let out = Jit.Engine.output engine in
          let printed = String.sub out before (String.length out - before) in
          if printed <> it.w.expected then
            fail "%s: main() printed %S, expected %S" (item_key it) printed it.w.expected);
      check_reference (item_key it)
        (Printf.sprintf "code_size=%d compile_cycles=%d peak=%h cycles=%d steps=%d output=%s"
           code_size engine.compile_cycles peak cycles steps
           (Digest.to_hex (Digest.string (Jit.Engine.output engine))))

(* ---------- serve-churn: Jit.Serve fleets on a churning code cache ---------- *)

(* what a tenant's solo harness run leaves behind *)
type solo = {
  peak : float;
  cycles : int;
  steps : int;
  osr_enters : int;
  resident : int;
  waits : int list;
  disp : dispatch;
}

type fleet_setup = {
  fleets : Workloads.Defs.t list list;  (* every program once, by seed *)
  limits : Jit.Serve.limits;
  expect : (string, int * string) Hashtbl.t;  (* id -> interpreter checksum, output *)
  solos : (string, solo) Hashtbl.t;
  wait_p90 : int;  (* pooled over every tenant's serviced requests *)
  live_peak_words : float;  (* largest solo engine *)
}

let tenant ~traced p ?cfg ?(caches = ref []) (w : Workloads.Defs.t) : Jit.Serve.tenant =
  {
    tn_id = w.name;
    tn_make =
      (fun () ->
        let t0 = now () in
        let prog = frontend ~traced w in
        (* serving pays prepare here; Engine.create's copy is a no-op *)
        if not traced then Opt.Driver.prepare_program prog;
        p.cur.setup <- p.cur.setup +. (now () -. t0);
        let config =
          match cfg with
          | None -> Jit.Engine.interpreter_config
          | Some c ->
              let tc = Inliner.Trial_cache.create () in
              caches := tc :: !caches;
              engine_config ~traced p c tc
        in
        (prog, config));
    tn_iters = w.iters;
  }

let rec chunks n = function
  | [] -> []
  | l -> List.filteri (fun i _ -> i < n) l :: chunks n (List.filteri (fun i _ -> i >= n) l)

(* Once per invocation, before timing: the interpreter oracle, the
   unbounded sizing run, and a solo harness run of each tenant under the
   fleet's limits. A tenant behaves identically solo and in a fleet (the
   serving layer's isolation invariant, checked below on cycles and
   steps), so the solo runs give the per-iteration series behind peak
   cycles, the pooled queue-wait distribution and the per-engine counters
   [Jit.Serve] does not report. *)
let fleet_setup programs =
  let setup_pass = new_pass ~measure_live:true in
  let t0 = now () in
  let all = List.concat programs in
  let expect = Hashtbl.create 32 in
  List.iter
    (fun (r : Jit.Serve.tenant_report) ->
      Hashtbl.replace expect r.tr_id (r.tr_checksum, r.tr_output))
    (Jit.Serve.run (List.map (tenant ~traced:false setup_pass) all));
  let t_oracle = now () -. t0 in
  let unbounded =
    Jit.Serve.run
      ~limits:{ Jit.Serve.default_limits with queue_capacity = Some queue_capacity }
      (List.map (tenant ~traced:false setup_pass ~cfg:Incremental) all)
  in
  let demand =
    List.fold_left (fun a (r : Jit.Serve.tenant_report) -> max a r.tr_cache_used) 0 unbounded
  in
  let cap = max 1 (demand / 4) in
  let limits =
    { Jit.Serve.default_limits with
      queue_capacity = Some queue_capacity; queue_age_unit; cache_capacity = Some cap }
  in
  let t_sizing = now () -. t0 -. t_oracle in
  let solos = Hashtbl.create 32 in
  List.iter
    (fun (w : Workloads.Defs.t) ->
      Gc.full_major ();
      setup_pass.live_base <- float_of_int (Gc.stat ()).live_words;
      let prog = Workloads.Registry.compile w in
      let e =
        Jit.Engine.create ~queue_capacity ~queue_age_unit ~cache_capacity:cap prog
          (engine_config ~traced:false setup_pass Incremental (Inliner.Trial_cache.create ()))
      in
      let run = Jit.Harness.run_benchmark ~iters:w.iters e ~entry:"bench" ~label:w.name in
      sample_live setup_pass e;
      let st = Jit.Engine.serve_stats e in
      Hashtbl.replace solos w.name
        { peak = run.peak_cycles; cycles = e.vm.cycles; steps = e.vm.steps;
          osr_enters = e.osr_enters; resident = st.sv_cache_resident;
          waits = st.sv_queue_waits; disp = dispatch_of e })
    all;
  Printf.printf
    "# serve-churn: %d fleets, cache cap %d nodes (25%% of %d demand); oracle %.2f s, \
     sizing %.2f s, solo runs %.2f s\n%!"
    (List.length programs) cap demand t_oracle t_sizing (now () -. t0 -. t_oracle -. t_sizing);
  let waits = Hashtbl.fold (fun _ solo acc -> solo.waits @ acc) solos [] in
  { fleets = programs; limits; expect; solos;
    wait_p90 = Support.Stats.percentile (List.sort compare waits) 0.9;
    live_peak_words = setup_pass.live_peak_words }

let run_fleets ~traced (fs : fleet_setup) (p : pass) =
  List.iter
    (fun fleet ->
      attempted := !attempted + List.length fleet;
      begin_unit p;
      let calloc0 = Layers.get "jit.compile_alloc_words" in
      let a0 = if traced then Layers.alloc_words () else 0.0 in
      let caches = ref [] in
      let t0 = now () in
      let outcome =
        match
          Jit.Serve.run ~limits:fs.limits
            (List.map (tenant ~traced p ~cfg:Incremental ~caches) fleet)
        with
        | exception e -> Error e
        | reports -> Ok reports
      in
      p.cur.pieces <- [ (now () -. t0 -. p.cur.setup, p.cur.compile) ];
      end_unit p;
      match outcome with
      | Error e ->
          (* the whole fleet is lost: one failure per tenant *)
          failed := !failed + List.length fleet - 1;
          fail "fleet %s: %s"
            (String.concat "," (List.map (fun (w : Workloads.Defs.t) -> w.name) fleet))
            (Printexc.to_string e)
      | Ok reports ->
          if traced then begin
            Layers.add "runtime.exec_alloc_words"
              (Layers.alloc_words () -. a0 -. (Layers.get "jit.compile_alloc_words" -. calloc0));
            List.iter trial_stats !caches
          end;
          List.iter
            (fun (r : Jit.Serve.tenant_report) ->
              let solo = Hashtbl.find fs.solos r.tr_id in
              let checksum, output = Hashtbl.find fs.expect r.tr_id in
              if r.tr_checksum <> checksum || r.tr_output <> output then
                fail "%s: served checksum %d, interpreter %d" r.tr_id r.tr_checksum checksum;
              if r.tr_cycles <> solo.cycles || r.tr_steps <> solo.steps then
                fail "%s: served tenant differs from its solo run" r.tr_id;
              p.iters <- p.iters + r.tr_iters;
              p.steps <- p.steps + r.tr_steps;
              p.sim_cycles <- p.sim_cycles + r.tr_cycles;
              p.compile_cycles <- p.compile_cycles + r.tr_compile_cycles;
              p.code_size <- p.code_size + r.tr_cache_used;
              p.peaks <- solo.peak :: p.peaks;
              if traced then begin
                Layers.count "jit.installs" r.tr_installs;
                Layers.count "jit.invalidations" r.tr_invalidations;
                Layers.count "jit.bailouts" r.tr_bailouts;
                Layers.count "jit.osr_enters" solo.osr_enters;
                Layers.count "jit.resident" solo.resident;
                Layers.count "jit.serve.evictions" r.tr_evictions;
                Layers.count "jit.serve.sheds" r.tr_sheds;
                Layers.count "runtime.steps" r.tr_steps;
                count_dispatch solo.disp
              end;
              check_reference r.tr_id
                (Printf.sprintf
                   "checksum=%d cycles=%d steps=%d compile_cycles=%d installs=%d \
                    evictions=%d sheds=%d cache_used=%d output=%s"
                   r.tr_checksum r.tr_cycles r.tr_steps r.tr_compile_cycles r.tr_installs
                   r.tr_evictions r.tr_sheds r.tr_cache_used
                   (Digest.to_hex (Digest.string r.tr_output))))
            reports)
    fs.fleets;
  p.live_peak_words <- Float.max p.live_peak_words fs.live_peak_words;
  if traced then Layers.count "jit.serve.queue_wait_p90_cycles" fs.wait_p90

(* ---------- statistics ---------- *)

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

(* exact-rank percentile, as Support.Stats.percentile *)
let percentile xs q =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
      let n = List.length s in
      List.nth s (max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let ratio a b = if b > 0.0 then a /. b else 0.0
let sum xs = List.fold_left ( +. ) 0.0 xs

(* Unit j of every pass, for each j (all passes run the same units). *)
let by_unit (ps : pass list) : utime list list =
  let units = List.map (fun p -> Array.of_list p.units) ps in
  let n = List.fold_left (fun a u -> min a (Array.length u)) max_int units in
  List.init n (fun j -> List.map (fun u -> u.(j)) units)

(* Best over the passes of every element k of a per-unit list: element k
   is the same piece of work in every pass, so its shortest time is the
   one the host disturbed least. Times are scaled to the reference host
   unless [raw]. *)
let bests ~raw (ps : pass list) (elems : utime -> float list) : float list =
  let scale u t = if raw then t else t *. ref_probe /. u.probe in
  List.concat_map
    (fun us ->
      let ls = List.map (fun u -> (u, Array.of_list (elems u))) us in
      let n = List.fold_left (fun a (_, l) -> min a (Array.length l)) max_int ls in
      List.init n (fun k ->
          List.fold_left (fun m (u, l) -> Float.min m (scale u l.(k))) infinity ls))
    (by_unit ps)

(* End-to-end metrics of the untraced passes; [raw] leaves times
   unscaled. *)
let end_to_end ~raw (ps : pass list) =
  let bests = bests ~raw ps in
  let lat = bests (fun u -> u.lat) in
  let run = sum (bests (fun u -> List.map fst u.pieces)) in
  let exec = sum (bests (fun u -> List.map (fun (w, c) -> w -. c) u.pieces)) in
  let p0 = List.hd ps in
  [
    ("setup_s", sum (bests (fun u -> [ u.setup ])), "s");
    ("iters_per_s", ratio (float_of_int p0.iters) run, "1/s");
    ("compile_s", sum lat, "s");
    ("exec_s", exec, "s");
    ("compile_ms_p50", 1000.0 *. percentile lat 0.5, "ms");
    ("compile_ms_p90", 1000.0 *. percentile lat 0.9, "ms");
    ("steps_per_s", ratio (float_of_int p0.steps) exec, "1/s");
    ("heap_peak_mb", words_to_mb p0.live_peak_words, "MB");
    ("sim_cycles", float_of_int p0.sim_cycles, "cycles");
    ("compile_cycles", float_of_int p0.compile_cycles, "cycles");
    ("peak_cycles_geomean", Support.Stats.geomean (List.sort compare p0.peaks), "cycles");
    ("code_size", float_of_int p0.code_size, "nodes");
  ]

(* The simulated metrics must not move between passes. *)
let check_determinism (ps : pass list) =
  let sim p = (p.sim_cycles, p.compile_cycles, p.code_size, List.sort compare p.peaks) in
  match ps with
  | [] -> ()
  | p0 :: rest ->
      List.iteri
        (fun i p ->
          if sim p <> sim p0 then fail "pass %d: simulated metrics differ from pass 1" (i + 2))
        rest

(* Per-layer metrics of one traced pass, from the accumulators. *)
let snapshot_layers (p : pass) =
  let g = Layers.get in
  (* times on the same reference-host scale as the end-to-end metrics *)
  let k = ref_probe /. median (List.map (fun u -> u.probe) p.units) in
  let ms name = 1000.0 *. k *. g name in
  let phase_sum = List.fold_left (fun a n -> a +. g n) 0.0 Layers.phases in
  p.layers <-
    [
      ("frontend.ms", ms "frontend");
      ("frontend.ir_nodes", g "frontend.ir_nodes");
      ("opt.prepare_ms", ms "opt.prepare");
      ("inliner.create_ms", ms "inliner.create");
      ("inliner.expand_ms", ms "inliner.expand");
      ("inliner.analyze_ms", ms "inliner.analyze");
      ("inliner.inline_ms", ms "inliner.inline");
      ("inliner.refresh_ms", ms "inliner.refresh");
      ("inliner.rounds", g "inliner.rounds");
      ("inliner.expanded", g "inliner.expanded");
      ("inliner.inlined", g "inliner.inlined");
      ("inliner.inline_ratio", ratio (g "inliner.inlined") (g "inliner.expanded"));
      ( "inliner.trial_cache_hit_rate",
        ratio (g "inliner.trial_hits") (g "inliner.trial_hits" +. g "inliner.trial_misses") );
      ("inliner.trial_cache_lookups", g "inliner.trial_hits" +. g "inliner.trial_misses");
      ("inliner.coverage", ratio phase_sum (g "compile.incremental"));
      ("opt.simplify_ms", ms "opt.simplify");
      ("opt.rwelim_ms", ms "opt.rwelim");
      ("opt.scalar_ms", ms "opt.scalar");
      ("opt.licm_ms", ms "opt.licm");
      ("opt.peel_ms", ms "opt.peel");
      ("opt.simple_opts", g "opt.simple_opts");
      ("opt.licm_hoisted", g "opt.licm_hoisted");
      ("opt.loops_peeled", g "opt.loops_peeled");
      ("baselines.greedy_ms", ms "baselines.greedy");
      ("baselines.c2like_ms", ms "baselines.c2like");
      ("jit.compiles", g "jit.compiles");
      ("jit.installs", g "jit.installs");
      ("jit.invalidations", g "jit.invalidations");
      ("jit.bailouts", g "jit.bailouts");
      ("jit.osr_enters", g "jit.osr_enters");
      ("jit.useful_compile_ratio", ratio (g "jit.resident") (g "jit.compiles"));
      ("jit.compile_alloc_mb", words_to_mb (g "jit.compile_alloc_words"));
      ("jit.serve.evictions", g "jit.serve.evictions");
      ("jit.serve.sheds", g "jit.serve.sheds");
      ("jit.serve.queue_wait_p90_cycles", g "jit.serve.queue_wait_p90_cycles");
      ("runtime.steps", g "runtime.steps");
      ("runtime.ic_hit_rate", ratio (g "runtime.ic_hits") (g "runtime.ic_dispatches"));
      ("runtime.ic_dispatches", g "runtime.ic_dispatches");
      ("runtime.ic_megamorphic", g "runtime.ic_megamorphic");
      ("runtime.fused_sites", g "runtime.fused_sites");
      ("runtime.exec_alloc_mb", words_to_mb (g "runtime.exec_alloc_words"));
    ]

let unit_of name =
  let ends s = String.ends_with ~suffix:s name in
  if ends "_ms" || name = "frontend.ms" then "ms"
  else if ends "_mb" then "MB"
  else if ends "_cycles" then "cycles"
  else if ends "_rate" || ends "_ratio" || ends "coverage" then "ratio"
  else if ends "_s" then "s"
  else "count"

let json_metrics (ms : (string * float * string) list) =
  String.concat ", "
    (List.map
       (fun (name, v, unit) ->
         let v = if Float.is_finite v then v else 0.0 in
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
       ms)

(* ---------- main ---------- *)

let shuffle seed l =
  let st = Random.State.make [| seed |] in
  List.map (fun x -> (Random.State.bits st, x)) l |> List.sort compare |> List.map snd

let usage () =
  prerr_endline
    "usage: main.exe --workload warmup|steady|serve-churn --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref false in
  let rec parse = function
    | "--workload" :: v :: r ->
        workload := v;
        parse r
    | "--seed" :: v :: r -> (
        match int_of_string_opt v with
        | Some n ->
            seed := n;
            parse r
        | None -> usage ())
    | "--seconds" :: v :: r -> (
        match float_of_string_opt v with
        | Some s when s > 0.0 ->
            seconds := s;
            parse r
        | _ -> usage ())
    | "--trace" :: (("0" | "1") as v) :: r ->
        trace := v = "1";
        parse r
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let t_launch = now () in
  let programs = shuffle !seed Workloads.Registry.all in
  let items cfgs iters =
    List.concat_map (fun w -> List.map (fun cfg -> { w; cfg; iters = iters w }) cfgs) programs
    |> shuffle !seed
  in
  let run_pass : traced:bool -> pass -> unit =
    match !workload with
    | "warmup" ->
        let items = items [ Incremental; Greedy; C2like ] (fun _ -> warmup_iters) in
        fun ~traced p -> List.iter (run_item ~traced p) items
    | "steady" ->
        let items = items [ Incremental ] (fun w -> steady_factor * w.iters) in
        fun ~traced p -> List.iter (run_item ~traced p) items
    | "serve-churn" ->
        let fs = fleet_setup (chunks fleet_size programs) in
        fun ~traced p -> run_fleets ~traced fs p
    | _ -> usage ()
  in
  Printf.printf "# set-up before timing: %.3f s\n%!" (now () -. t_launch);
  let untraced = ref [] and traced = ref [] in
  let start = now () in
  (* A traced run alternates untraced and traced passes, starting
     untraced, so the untraced passes are the reference the traced ones
     must reproduce and the tracing overhead is measured in one process. *)
  let rec loop i =
    let tr = !trace && i mod 2 = 1 in
    let p = new_pass ~measure_live:(i = 0) in
    Layers.reset ();
    run_pass ~traced:tr p;
    let total f = sum (List.map f p.units) in
    Printf.printf "# pass %d%s: setup %.3f s, run %.3f s, compile %.3f s, probe %.3f ms\n%!"
      (i + 1) (if tr then " (traced)" else "")
      (total (fun u -> u.setup))
      (total (fun u -> sum (List.map fst u.pieces)))
      (total (fun u -> u.compile))
      (1000.0 *. median (List.map (fun u -> u.probe) p.units));
    if tr then begin
      snapshot_layers p;
      traced := p :: !traced
    end
    else untraced := p :: !untraced;
    (* another pass only if it is expected to end within the budget *)
    let elapsed = now () -. start in
    if elapsed *. float_of_int (i + 2) /. float_of_int (i + 1) <= !seconds
       || (!trace && !traced = [])
    then loop (i + 1)
  in
  loop 0;
  let untraced = List.rev !untraced and traced = List.rev !traced in
  check_determinism (untraced @ traced);
  let metrics =
    if not !trace then begin
      let m = end_to_end ~raw:false untraced in
      Printf.printf "# %d passes, %d compile requests per pass; reference-host and raw figures:\n"
        (List.length untraced)
        (List.length (bests ~raw:true untraced (fun u -> u.lat)));
      List.iter2
        (fun (n, v, u) (_, r, _) -> Printf.printf "# %-20s %18.6f %18.6f %s\n" n v r u)
        m (end_to_end ~raw:true untraced);
      m
    end
    else begin
      let layer n = median (List.map (fun p -> List.assoc n p.layers) traced) in
      let compile ps = sum (bests ~raw:false ps (fun u -> u.lat)) in
      let m =
        List.map (fun (n, _) -> (n, layer n, unit_of n)) (List.hd traced).layers
        @ [ ("trace.compile_overhead_s", compile traced -. compile untraced, "s") ]
      in
      List.iter (fun (n, v, u) -> Printf.printf "# %-36s %16.6f %s\n" n v u) m;
      m
    end
  in
  Printf.printf "# failed_frac %d/%d = %.6f\n" !failed !attempted
    (ratio (float_of_int !failed) (float_of_int !attempted));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) !attempted !failed (json_metrics metrics);
  exit (if !failed = 0 then 0 else 1)
