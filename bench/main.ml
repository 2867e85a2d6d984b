(* Benchmark harness entry point.

     dune exec bench/main.exe              # regenerate every figure/table
     dune exec bench/main.exe -- fig9      # a single experiment

   Output is plain text, designed to be tee'd into bench_output.txt and
   compared against the paper's Section V (see EXPERIMENTS.md). *)

open Cmdliner

let banner () =
  print_endline "SelVM incremental-inlining reproduction harness";
  Printf.printf "workloads: %s\n" (String.concat ", " (Workloads.Registry.names ()));
  Printf.printf
    "method: up to %d iterations per run, peak = mean of the last 40%% (max 20); \
     fresh engine per (workload, config); hotness threshold %d; simulated cycles\n"
    (List.fold_left (fun acc (w : Workloads.Defs.t) -> max acc w.iters) 0
       Workloads.Registry.all)
    Common.hotness_threshold

let experiments : (string * (unit -> unit)) list =
  [
    ("fig5", fun () -> Experiments.fig5 ());
    ("fig6", fun () -> Experiments.fig6 ());
    ("fig7", fun () -> Experiments.fig7 ());
    ("fig8", fun () -> Experiments.fig8 ());
    ("fig9", fun () -> Experiments.fig9 ());
    ("fig10", fun () -> ignore (Experiments.fig10 ()));
    ("table1", fun () -> Experiments.table1 ());
    ("warmup", fun () -> Experiments.warmup ());
    ("opts-ablation", fun () -> Experiments.opts_ablation ());
    ("scaling", fun () -> Experiments.scaling ());
    ("smoke", fun () -> Smoke.run ());
    ("all", fun () -> Experiments.all ());
  ]

(* [Arg.enum] makes cmdliner reject an unknown name with a usage error
   that lists the valid ones *)
let experiment =
  let names = List.map (fun (name, _) -> (name, name)) experiments in
  let doc =
    Printf.sprintf "Experiment to run: %s." (Arg.doc_alts_enum ~quoted:false names)
  in
  Arg.(value & pos 0 (enum names) "all" & info [] ~docv:"EXPERIMENT" ~doc)

let cmd =
  let doc = "regenerate the paper's evaluation figures and tables on SelVM" in
  Cmd.v
    (Cmd.info "bench" ~doc)
    Term.(
      const (fun name ->
          banner ();
          List.assoc name experiments ())
      $ experiment)

let () = exit (Cmd.eval cmd)
