(* The Echo benchmark.

     main.exe --workload aes_edit|serve_mix --seed N --seconds S --trace 0|1
     main.exe --self-check

   Workloads (inputs drawn from --seed only):
   - aes_edit: cold certified AES verifies as set-up, each in a fresh
     process with an empty run directory and proof cache, the last one the
     baseline; then incremental verifies of a benign edit to a seeded draw
     of the AES subprograms, each in a fresh process sharing the
     baseline's proof cache;
   - serve_mix: a seeded job stream against a forked serve daemon, as a
     closed loop with 2 jobs in flight and 2 workers (see [Serve_mix]).

   --trace 0 measures the workload and prints the end-to-end metrics;
   --trace 1 runs the traced layer composition (see [traced]) and prints
   the per-layer metrics.  Every verdict is checked; the last line of
   standard output is the JSON result. *)

module J = Telemetry.Json

(* ------------------------------------------------------------------ *)
(* Metric catalogue                                                    *)
(* ------------------------------------------------------------------ *)

let end_to_end =
  [
    ("job_s_p50", "s");
    ("jobs_per_s", "1/s");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
  ]

(* the AES implication lemmas, in suite order *)
let lemma_names =
  [
    "sbox_table"; "inv_sbox_table"; "rcon_lemma"; "xtime_lemma"; "gf_mul_lemma";
    "rot_word_lemma"; "sub_word_lemma"; "xor_word_lemma"; "sub_bytes_lemma";
    "inv_sub_bytes_lemma"; "shift_rows_lemma"; "inv_shift_rows_lemma";
    "mix_columns_lemma"; "inv_mix_columns_lemma"; "add_round_key_lemma";
    "inv_mix_word_lemma"; "enc_round_lemma"; "enc_final_round_lemma";
    "dec_round_lemma"; "dec_final_round_lemma"; "load_block_lemma";
    "store_block_lemma"; "key_expansion_lemma"; "key_expansion_nr_lemma";
    "cipher_lemma"; "inv_cipher_lemma"; "encrypt_kat_lemma";
    "encrypt_block_lemma"; "decrypt_block_lemma";
  ]

let per_layer =
  [ ("minispark.parse_s", "s"); ("minispark.typecheck_s", "s"); ("refactor.s", "s") ]
  @ List.init 14 (fun i -> (Printf.sprintf "refactor.block.%02d_s" (i + 1), "s"))
  @ [
      ("refactor.steps", "count");
      ("refactor.kat_s", "s");
      ("refactor.uncertified_s", "s");
      ("certify.targets", "count");
      ("certify.oracle_trials", "count");
      ("certify.vcs_generated", "count");
      ("certify.vcs_proved", "count");
      ("certify.oracle_s", "s");
      ("certify.vc_s", "s");
      ("echo.annotate_s", "s");
      ("vcgen.s", "s");
      ("vcgen.vcs", "count");
      ("vcgen.nodes", "count");
      ("impl_proof.s", "s");
      ("impl_proof.attempts", "count");
      ("logic.prove_s", "s");
      ("logic.vc_max_s", "s");
      ("impl_proof.incremental_s", "s");
      ("impl_proof.reproved", "count");
      ("impl_proof.carried_frac", "ratio");
      ("farm.cache_open_s", "s");
      ("farm.cache_save_s", "s");
      ("farm.cache_hit_frac", "ratio");
      ("analysis.impact_s", "s");
      ("analysis.impacted_subs", "count");
      ("echo.checkpoint_load_s", "s");
      ("extract.s", "s");
      ("specl.match_s", "s");
      ("implication.s", "s");
      ("implication.lemma_max_s", "s");
    ]
  @ List.map (fun n -> (Printf.sprintf "implication.lemma.%s_s" n, "s")) lemma_names
  @ [
      ("serve.overhead_s_p50", "s");
      ("serve.stage.parse_s", "s");
      ("serve.stage.impact_s", "s");
      ("serve.stage.prove_s", "s");
      ("serve.codec_s", "s");
      ("serve.dedup_hit_frac", "ratio");
      ("serve.attempts_per_job", "count");
      ("serve.queue_depth_max", "count");
      ("trace.job_s_p50", "s");
      ("trace.untraced_job_s_p50", "s");
      ("trace.overhead_s", "s");
    ]

(* ------------------------------------------------------------------ *)
(* Result                                                              *)
(* ------------------------------------------------------------------ *)

type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  notes : string list;  (** why a job failed *)
}

(* declared metrics the run did not produce, and produced ones the
   catalogue does not declare *)
let catalogue_gaps catalogue metrics =
  let missing =
    List.filter_map
      (fun (n, _) ->
        match List.assoc_opt n metrics with
        | Some v when Float.is_finite v -> None
        | _ -> Some n)
      catalogue
  in
  let extra = List.filter (fun (n, _) -> not (List.mem_assoc n catalogue)) metrics in
  (missing, List.map fst extra)

(* print every metric with its unit, then the one-line JSON result *)
let emit ~catalogue (o : outcome) =
  let missing, extra = catalogue_gaps catalogue o.metrics in
  List.iter (fun n -> Printf.printf "note: %s\n" n) o.notes;
  List.iter (fun n -> Printf.printf "error: metric %s was not measured\n" n) missing;
  List.iter (fun n -> Printf.printf "error: metric %s is not declared\n" n) extra;
  Printf.printf "failed_frac %.6f (%d of %d jobs)\n"
    (Util.frac o.failed o.attempted) o.failed o.attempted;
  let shown = List.filter (fun (n, _) -> List.mem_assoc n o.metrics) catalogue in
  List.iter
    (fun (n, unit) -> Printf.printf "%-40s %.6g %s\n" n (List.assoc n o.metrics) unit)
    shown;
  let metric (n, unit) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n (List.assoc n o.metrics) unit
  in
  let correct = o.failed = 0 && missing = [] && extra = [] && o.attempted > 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct o.attempted o.failed
    (String.concat ", " (List.map metric shown));
  correct

(* ------------------------------------------------------------------ *)
(* Shared workload plumbing                                            *)
(* ------------------------------------------------------------------ *)

type ctx = {
  seed : int;
  seconds : float;
  work : string;  (** scratch directory of this run, removed at exit *)
}

type tally = {
  mutable t_attempted : int;
  mutable t_failed : int;
  mutable t_notes : string list;
}

let tally () = { t_attempted = 0; t_failed = 0; t_notes = [] }

(* count one checked job; [ok = false] records [why] *)
let check t ok why =
  t.t_attempted <- t.t_attempted + 1;
  if not ok then begin
    t.t_failed <- t.t_failed + 1;
    t.t_notes <- Lazy.force why :: t.t_notes
  end

let outcome t metrics =
  { attempted = t.t_attempted; failed = t.t_failed; metrics; notes = List.rev t.t_notes }

let path ctx name = Filename.concat ctx.work name

(* a fresh-process job; a crashed child is a failed job *)
let child t args =
  match Proc.run args with
  | Ok r -> Some r
  | Error e ->
      check t false (lazy e);
      None

let int_of j k = Util.int_field k j
let float_of j k = float_of_string (Util.string_field k j)

(* the cold certified AES verdict of the paper's case study *)
let cold_ok j =
  Util.string_field "verdict" j = "VERIFIED"
  && int_of j "total" = 383 && int_of j "auto" = 365 && int_of j "hinted" = 18
  && int_of j "residual" = 0 && int_of j "lemmas" = 29 && int_of j "lemmas_ok" = 29
  && int_of j "certified" = 59 && int_of j "steps" = 59

let edit_ok j =
  Util.string_field "verdict" j = "VERIFIED"
  && int_of j "residual" = 0 && int_of j "lemmas" = 29 && int_of j "lemmas_ok" = 29
  && int_of j "certified" = 59 && int_of j "steps" = 59

let describe j =
  Printf.sprintf "%s, %d VCs (%d auto, %d hinted, %d residual), %d/%d lemmas, %d/%d steps certified"
    (Util.string_field "verdict" j) (int_of j "total") (int_of j "auto")
    (int_of j "hinted") (int_of j "residual") (int_of j "lemmas_ok") (int_of j "lemmas")
    (int_of j "certified") (int_of j "steps")

(* two summaries agree on everything that makes up the verdict *)
let same_verdict a b =
  List.for_all (fun k -> Util.field k a = Util.field k b)
    [ "verdict"; "total"; "auto"; "hinted"; "residual"; "carried"; "lemmas";
      "lemmas_ok"; "certified"; "steps"; "keys" ]

(* run [job i] for i = 0, 1, ... until [seconds] have passed and at
   least [min_jobs] ran; returns the results and the loop's wall time *)
let timed_loop ctx ~min_jobs job =
  let t0 = Util.now () in
  let rec go i acc =
    if i >= min_jobs && Util.now () -. t0 >= ctx.seconds then (List.rev acc, Util.now () -. t0)
    else go (i + 1) (job i :: acc)
  in
  go 0 []

let e2e ~latencies ~wall ~setup ~rss =
  [
    ("job_s_p50", Util.median latencies);
    ("jobs_per_s", float_of_int (List.length latencies) /. wall);
    ("setup_s", setup);
    ("peak_rss_mb", rss);
  ]

(* the annotated AES program's subprograms, in a seeded order *)
let edit_draw ctx ~baseline =
  match Aes_jobs.load_checkpoint ~dir:baseline Echo.Checkpoint.S_annotate with
  | Echo.Checkpoint.P_annotate { pa_src } ->
      Minispark.Ast.subprograms (Minispark.Parser.of_string pa_src)
      |> List.map (fun sp -> sp.Minispark.Ast.sub_name)
      |> Util.shuffle (Random.State.make [| ctx.seed; 0xed17 |])
      |> Array.of_list
  | _ -> failwith "baseline annotate checkpoint"

(* ------------------------------------------------------------------ *)
(* aes_edit                                                            *)
(* ------------------------------------------------------------------ *)

(* cold verifies in the set-up; the last one is the edits' baseline *)
let cold_setups = 3

let aes_edit ctx =
  let t = tally () in
  let baseline = path ctx "baseline" in
  (* set-up: [cold_setups] cold certified verifies, the paper's headline
     job, each in a fresh process with an empty run directory and proof
     cache; set-up time is their median *)
  let colds =
    List.init cold_setups (fun i ->
        let last = i = cold_setups - 1 in
        let run_dir = if last then baseline else path ctx (Printf.sprintf "cold-%d" i) in
        let r = child t [ "cold"; run_dir ] in
        if not last then Util.rm_rf run_dir;
        Option.map
          (fun (r : Proc.result) ->
            Printf.printf "cold verify %d: %.3fs, %s\n%!" i r.Proc.r_seconds (describe r.Proc.r_json);
            check t (cold_ok r.Proc.r_json) (lazy ("cold verify: " ^ describe r.Proc.r_json));
            r.Proc.r_seconds)
          r)
  in
  match List.nth colds (cold_setups - 1) with
  | None -> outcome t []
  | Some _ ->
      let setup = Util.median (List.filter_map Fun.id colds) in
      let draw = edit_draw ctx ~baseline in
      let sub i = draw.(i mod Array.length draw) in
      let runs, wall =
        timed_loop ctx ~min_jobs:3 (fun i ->
            let run_dir = path ctx (Printf.sprintf "edit-%d" i) in
            let r = child t [ "edit"; baseline; run_dir; sub i ] in
            Option.iter
              (fun (r : Proc.result) ->
                Printf.printf "edit %d (%s): %.3fs, %s\n%!" i (sub i) r.Proc.r_seconds
                  (describe r.Proc.r_json))
              r;
            Util.rm_rf run_dir;
            Option.map (fun r -> (i, r)) r)
      in
      let runs = List.filter_map Fun.id runs in
      (* references, after the timed loop: each edit fully re-proved *)
      List.iter
        (fun (i, (r : Proc.result)) ->
          let ref_dir = path ctx (Printf.sprintf "ref-%d" i) in
          (match child t [ "edit-ref"; baseline; ref_dir; sub i ] with
          | None -> ()
          | Some rf ->
              let j = r.Proc.r_json in
              check t
                (edit_ok j && Util.field "keys" j = Util.field "keys" rf.Proc.r_json)
                (lazy
                  (Printf.sprintf "edit of %s: %s; per-VC keys %s the full re-prove's"
                     (sub i) (describe j)
                     (if Util.field "keys" j = Util.field "keys" rf.Proc.r_json then "match"
                      else "differ from"))));
          Util.rm_rf ref_dir)
        runs;
      outcome t
        (e2e
           ~latencies:(List.map (fun (_, r) -> r.Proc.r_seconds) runs)
           ~wall ~setup
           ~rss:(Util.median (List.map (fun (_, r) -> float_of r.Proc.r_json "rss_mb") runs)))

(* ------------------------------------------------------------------ *)
(* serve_mix                                                           *)
(* ------------------------------------------------------------------ *)

(* set up — read the programs, boot a daemon and verify each unedited
   program once through it, so workers and cache are warm — [setups_n]
   times; the last daemon serves [body].  Returns the median set-up time
   and [body]'s result *)
let serve_session ?(setups_n = 9) t ctx ~name body =
  let setups = ref [] in
  let result = ref None in
  for k = 1 to setups_n do
    let t0 = Util.now () in
    let programs = Serve_mix.read_programs () in
    let g = Serve_mix.generator ~seed:ctx.seed programs in
    let work = path ctx (Printf.sprintf "%s-%d" name k) in
    Serve.Client.with_daemon ~config:(Serve_mix.daemon_config ~work) (fun cl ->
        List.iter
          (fun (program, source) ->
            let verdict =
              match Serve.Client.run_job cl (Serve.Protocol.job ~jobs:1 ~source ()) with
              | Ok (o, _, _) -> o.Serve.Protocol.w_verdict
              | Error e -> e
            in
            check t (verdict = "verified")
              (lazy (Printf.sprintf "warm-up job %s: %s" program verdict)))
          programs;
        setups := (Util.now () -. t0) :: !setups;
        if k = setups_n then result := Some (body g cl));
    Util.rm_rf work
  done;
  (Util.median !setups, Option.get !result)

(* check every finished job against the one-shot references *)
let check_stream ?corrupt t (s : Serve_mix.stream) =
  let refs = Serve_mix.references ?corrupt s.Serve_mix.s_finished in
  List.iter
    (fun (f : Serve_mix.finished) ->
      let error = Serve_mix.job_error refs f in
      check t (error = None)
        (lazy
          (Printf.sprintf "serve job %s: %s"
             (Serve_mix.id f.Serve_mix.f_job.Serve_mix.j_index)
             (Option.value error ~default:""))))
    s.Serve_mix.s_finished

let stream_latencies (s : Serve_mix.stream) =
  List.map (fun f -> f.Serve_mix.f_latency) s.Serve_mix.s_finished

let serve_run ?corrupt ctx ~stop =
  let t = tally () in
  let setup, s =
    serve_session t ctx ~name:"serve" (fun g cl ->
        let stop = stop () in
        Serve_mix.run_stream ~trace:false g cl ~stop)
  in
  check_stream ?corrupt t s;
  let latencies = stream_latencies s in
  (* the tail is printed but not declared in BENCHMARK.json: declared
     metrics are printed on every workload, and only this one has enough
     jobs for a 95th percentile *)
  Printf.printf "job_s_p95 %.6g s (%d jobs)\n" (Util.percentile 95.0 latencies)
    (List.length latencies);
  outcome t (e2e ~latencies ~wall:s.Serve_mix.s_wall ~setup ~rss:s.Serve_mix.s_rss_mb)

let serve_mix ctx =
  serve_run ctx ~stop:(fun () ->
      let t_end = Util.now () +. ctx.seconds in
      fun _ -> Util.now () >= t_end)

(* ------------------------------------------------------------------ *)
(* The traced run                                                      *)
(* ------------------------------------------------------------------ *)

(* jobs per serve stream in the traced run, untraced and traced alike *)
let trace_serve_jobs = 300

let serve_layers (s : Serve_mix.stream) =
  let open Serve_mix in
  let fs = s.s_finished in
  let stage name =
    Util.median (List.filter_map (fun (n, v) -> if n = name then Some v else None) s.s_stages)
  in
  let dups = List.filter (fun f -> f.f_job.j_kind = Dup) fs in
  let worked = List.filter (fun f -> f.f_outcome <> None && not f.f_dedup) fs in
  let sources = List.sort_uniq compare (List.map (fun f -> f.f_job.j_source) fs) in
  let parsed = List.map (fun src -> Util.time (fun () -> Minispark.Parser.of_string src)) sources in
  let checked =
    List.map (fun (p, _) -> snd (Util.time (fun () -> Minispark.Typecheck.check p))) parsed
  in
  [
    ("minispark.parse_s", Util.median (List.map snd parsed));
    ("minispark.typecheck_s", Util.median checked);
    ("serve.overhead_s_p50", Util.median (List.map (fun f -> f.f_latency -. f.f_stage_s) fs));
    ("serve.stage.parse_s", stage "parse");
    ("serve.stage.impact_s", stage "impact");
    ("serve.stage.prove_s", stage "prove");
    ("serve.codec_s", Util.median s.s_codec);
    ("serve.dedup_hit_frac", Util.frac (List.length (List.filter (fun f -> f.f_dedup) dups)) (List.length dups));
    ( "serve.attempts_per_job",
      Util.frac (List.fold_left (fun n f -> n + f.f_attempts) 0 worked) (List.length worked) );
    ("serve.queue_depth_max", float_of_int s.s_depth_max);
  ]

(* The traced run composes every layer, whatever the workload, so that
   each per-layer metric is measured on every run:
   1. an untraced cold verify (the reference, and the edit's baseline);
   2. the traced cold composition ([Aes_jobs.trace_cold]);
   3. an untraced incremental verify of the seed's first drawn edit, and
      the traced incremental composition of the same edit
      ([Aes_jobs.trace_edit]), each on its own copy of the baseline;
   4. the same seeded serve stream of [trace_serve_jobs] jobs, untraced
      and then traced (codec round trips timed per job).
   Each traced verdict must equal its untraced twin's.  The tracing
   overhead is the traced minus the untraced job time of the run's own
   workload (in-process seconds for the AES jobs, median latency for the
   stream). *)
let traced ctx ~workload =
  let t = tally () in
  let metrics = ref [] in
  let add ms = metrics := !metrics @ ms in
  let job_s (r : Proc.result) = float_of r.Proc.r_json "job_s" in
  let pair ~what ~ok untraced traced =
    match (untraced, traced) with
    | Some (u : Proc.result), Some (tr : Proc.result) ->
        let u = u.Proc.r_json and tj = tr.Proc.r_json in
        check t (ok u) (lazy (what ^ " (untraced): " ^ describe u));
        check t (ok tj && same_verdict tj u)
          (lazy (Printf.sprintf "%s (traced): %s; untraced twin: %s" what (describe tj) (describe u)));
        add (Util.metrics_of_json (Util.field "metrics" tj))
    | _ -> ()
  in
  let base = path ctx "trace-base" in
  let b = child t [ "cold"; base ] in
  let a = child t [ "trace-cold"; path ctx "trace-cache" ] in
  pair ~what:"cold verify" ~ok:cold_ok b a;
  let d, c =
    match b with
    | None -> (None, None)
    | Some _ ->
        let sub = (edit_draw ctx ~baseline:base).(0) in
        let copy name =
          let dir = path ctx name in
          Util.copy_tree base dir;
          dir
        in
        let d = child t [ "edit"; copy "trace-base-d"; path ctx "trace-edit"; sub ] in
        let c = child t [ "trace-edit"; copy "trace-base-c"; sub ] in
        pair ~what:("edit of " ^ sub) ~ok:edit_ok d c;
        (d, c)
  in
  let stream ~trace name =
    snd
      (serve_session ~setups_n:1 t ctx ~name (fun g cl ->
           Serve_mix.run_stream ~trace g cl ~stop:(fun i -> i >= trace_serve_jobs)))
  in
  let su = stream ~trace:false "trace-serve-u" in
  let st = stream ~trace:true "trace-serve-t" in
  check_stream t su;
  check_stream t st;
  add (serve_layers st);
  let twin traced untraced =
    match (traced, untraced) with
    | Some tr, Some u -> (job_s tr, job_s u)
    | _ -> (Float.nan, Float.nan)
  in
  let traced_s, untraced_s =
    match workload with
    | "aes_edit" -> twin c d
    | _ -> (Util.median (stream_latencies st), Util.median (stream_latencies su))
  in
  add
    [
      ("trace.job_s_p50", traced_s);
      ("trace.untraced_job_s_p50", untraced_s);
      ("trace.overhead_s", traced_s -. untraced_s);
    ];
  outcome t !metrics

(* ------------------------------------------------------------------ *)
(* Self-check                                                          *)
(* ------------------------------------------------------------------ *)

(* The benchmark checks itself: BENCHMARK.json declares exactly the
   metrics printed here, a missing metric is caught, an injected wrong
   reference verdict is counted as a failure, and a true stream and a
   traced run print every declared metric with its unit. *)
let self_check ctx =
  let ok = ref true in
  let expect what cond =
    Printf.printf "%s %s\n%!" (if cond then "ok  " else "FAIL") what;
    if not cond then ok := false
  in
  (match J.of_string (Util.read_file "BENCHMARK.json") with
  | exception Sys_error e -> expect ("BENCHMARK.json is readable: " ^ e) false
  | Error e -> expect ("BENCHMARK.json parses: " ^ e) false
  | Ok j ->
      let declared k =
        match J.member k j with
        | Some (J.List l) ->
            List.map (fun m -> (Util.string_field "name" m, Util.string_field "unit" m)) l
        | _ -> []
      in
      expect "BENCHMARK.json declares the end-to-end metrics printed, with their units"
        (declared "end_to_end" = end_to_end);
      expect "BENCHMARK.json declares the per-layer metrics printed, with their units"
        (declared "per_layer" = per_layer));
  let some = e2e ~latencies:[ 1.0 ] ~wall:1.0 ~setup:1.0 ~rss:1.0 in
  expect "a metric that was not measured is reported missing"
    (fst (catalogue_gaps end_to_end (List.tl some)) = [ "job_s_p50" ]);
  let stop () = fun i -> i >= 40 in
  let bad = serve_run ~corrupt:true ctx ~stop in
  expect
    (Printf.sprintf "an injected wrong reference verdict is counted as a failure (%d of %d failed)"
       bad.failed bad.attempted)
    (bad.failed >= 1);
  let good = serve_run ctx ~stop in
  expect
    (Printf.sprintf "the same stream with true references passes (%d of %d failed)" good.failed
       good.attempted)
    (good.failed = 0 && good.attempted > 40);
  expect "an untraced run measures every end-to-end metric"
    (catalogue_gaps end_to_end good.metrics = ([], []));
  let tr = traced ctx ~workload:"serve_mix" in
  expect
    (Printf.sprintf "the traced run passes (%d of %d failed)" tr.failed tr.attempted)
    (tr.failed = 0);
  let missing, extra = catalogue_gaps per_layer tr.metrics in
  expect
    (Printf.sprintf "the traced run measures every per-layer metric (missing: %s; undeclared: %s)"
       (String.concat " " missing) (String.concat " " extra))
    (missing = [] && extra = []);
  !ok

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let default_seed = 1

let usage () =
  prerr_endline
    "usage: main.exe --workload aes_edit|serve_mix [--seed N] [--seconds S] \
     [--trace 0|1]\n       main.exe --self-check";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | _ :: "child" :: args -> Proc.child_main Aes_jobs.main args
  | _ :: args ->
      let rec parse (w, seed, secs, trace, sc) = function
        | "--workload" :: v :: rest -> parse (Some v, seed, secs, trace, sc) rest
        | "--seed" :: v :: rest -> parse (w, int_of_string v, secs, trace, sc) rest
        | "--seconds" :: v :: rest -> parse (w, seed, float_of_string v, trace, sc) rest
        | "--trace" :: v :: rest -> parse (w, seed, secs, int_of_string v = 1, sc) rest
        | "--self-check" :: rest -> parse (w, seed, secs, trace, true) rest
        | [] -> (w, seed, secs, trace, sc)
        | _ -> usage ()
      in
      let workload, seed, seconds, trace, self =
        try parse (None, default_seed, 25.0, false, false) args with Failure _ -> usage ()
      in
      let name = if self then "self-check" else Option.value workload ~default:"" in
      if not (self || List.mem name [ "aes_edit"; "serve_mix" ]) then usage ();
      let work = Filename.concat ".bench_work" (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
      Util.mkdir_p work;
      let ctx = { seed; seconds; work } in
      let finally () = Util.rm_rf work in
      if self then exit (if Fun.protect ~finally (fun () -> self_check ctx) then 0 else 1)
      else
        let o =
          Fun.protect ~finally (fun () ->
              if trace then traced ctx ~workload:name
              else
                match name with
                | "aes_edit" -> aes_edit ctx
                | _ -> serve_mix ctx)
        in
        ignore (emit ~catalogue:(if trace then per_layer else end_to_end) o)
  | [] -> usage ()
