(* Golden pin of every inlining and optimization decision on the workload
   registry. Each program runs under the incremental inliner, the greedy
   baseline, the C2-like baseline and the inliner's three ablations on a
   fresh engine, in the benchmark's warm-up regime (hotness 8, 12
   iterations of [bench]), and records the installed code size, the
   simulated compile cycles and a digest of the printed installed IR. A change meant to be wall-clock only must leave
   every line of golden/decisions.golden unchanged. *)

open Util

let golden_path = "golden/decisions.golden"
let hotness = 8
let iters = 12

let incremental params () : Jit.Engine.compiler =
  let tc = Inliner.Trial_cache.create () in
  fun prog prof m -> (Inliner.Algorithm.compile ~trial_cache:tc prog prof params m).body

let compilers : (string * (unit -> Jit.Engine.compiler)) list =
  [
    ("incremental", incremental Inliner.Params.default);
    ("greedy", fun () -> greedy);
    ("c2-like", fun () -> c2like);
  ]

(* The ablation presets of [selvm --config]. [Params.default] takes
   neither the Fixed-policy expansion budget nor the shallow-trials path,
   so these pin the decisions the default lines cannot. Their lines follow
   all of the lines above. *)
let ablations : (string * (unit -> Jit.Engine.compiler)) list =
  let open Inliner.Params in
  [
    ("incremental-fixed", incremental (with_fixed ~te:300 ~ti:600 default));
    ("incremental-shallow", incremental (without_deep_trials default));
    ("incremental-1by1", incremental (without_clustering default));
  ]

(* The installed bodies in method-id order, printed. *)
let installed_ir (e : Jit.Engine.t) =
  Hashtbl.fold (fun m body acc -> (m, body) :: acc) e.code_cache []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map (fun (m, body) -> Printf.sprintf "m%d\n%s" m (Ir.Printer.fn_to_string body))
  |> String.concat "\n"

let line (w : Workloads.Defs.t) (cfg, make) =
  let prog = Workloads.Registry.compile w in
  let e =
    Jit.Engine.create prog
      { name = cfg; compiler = Some (make ()); hotness_threshold = hotness;
        compile_cost_per_node = 50; verify = false }
  in
  for _ = 1 to iters do
    ignore (Jit.Engine.run_meth e "bench" [ Runtime.Values.Vunit ])
  done;
  ignore (Jit.Engine.flush_pending e);
  Printf.sprintf "%s/%s code_size=%d compile_cycles=%d ir=%s" w.name cfg
    (Jit.Engine.installed_code_size e) e.compile_cycles
    (Digest.to_hex (Digest.string (installed_ir e)))

let read_lines path =
  match open_in path with
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let lines = ref [] in
          (try
             while true do
               lines := input_line ic :: !lines
             done
           with End_of_file -> ());
          Some (List.rev !lines))
  | exception Sys_error _ -> None

let tests =
  [
    test "installed code matches golden/decisions.golden" (fun () ->
        let lines configs =
          List.concat_map (fun w -> List.map (line w) configs) Workloads.Registry.all
        in
        let actual = lines compilers @ lines ablations in
        match read_lines golden_path with
        | None ->
            Alcotest.failf "missing %s; the current decisions are:\n%s" golden_path
              (String.concat "\n" actual)
        | Some golden ->
            let drift =
              if List.length golden <> List.length actual then
                [ Printf.sprintf "%d golden lines, %d actual" (List.length golden)
                    (List.length actual) ]
              else
                List.concat
                  (List.map2
                     (fun g a -> if g = a then [] else [ "- " ^ g; "+ " ^ a ])
                     golden actual)
            in
            if drift <> [] then
              Alcotest.failf
                "inlining or optimization decisions drifted from %s:\n%s\n\n\
                 A change that means to move them must say so and regenerate \
                 the file from the full list:\n%s"
                golden_path (String.concat "\n" drift) (String.concat "\n" actual));
  ]

let () = Alcotest.run "decisions" [ ("golden", tests) ]
