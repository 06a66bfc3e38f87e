(* Child-process side of the AES workloads.  Every job here runs in a
   fresh process spawned by the benchmark parent (see [Proc]); it may
   spawn proof-farm domains, which is why the parent never runs one
   itself.  Each job prints a one-line JSON summary of its verdict.

   Untraced jobs call [Echo.Orchestrator.run] on
   [Aes.Aes_echo.case_study], exactly as [aes verify] does.  Traced jobs
   compose the same layers in the orchestrator's order and time each
   call into a layer from here, so the program under test is unchanged. *)

open Minispark
module O = Echo.Orchestrator
module IP = Echo.Implementation_proof
module CK = Echo.Checkpoint
module J = Telemetry.Json

let cs = Aes.Aes_echo.case_study

(* proof-farm width of every AES job: the two visible cores *)
let jobs = 2

(* the change under analysis in the edit loop: a benign assert prepended
   to one subprogram's body (the same edit as [aes verify --edit-sub]) *)
let benign_edit sub prog =
  if Ast.find_sub prog sub = None then invalid_arg ("no subprogram " ^ sub);
  Ast.update_sub prog sub (fun sp ->
      { sp with Ast.sub_body = Ast.Assert (Ast.Bool_lit true) :: sp.Ast.sub_body })

let status_key = function
  | IP.Auto -> "auto"
  | IP.Hinted n -> Printf.sprintf "hinted:%d" n
  | IP.Residual _ -> "residual"
  | IP.Timed_out _ -> "timed-out"
  | IP.Discharged -> "discharged"

(* per-VC (subprogram, name, status) keys, order-independent *)
let vc_keys (r : IP.report) =
  List.map
    (fun (vr : IP.vc_result) ->
      let vc = vr.IP.vr_vc in
      String.concat "|"
        [ vc.Logic.Formula.vc_sub; vc.Logic.Formula.vc_name; status_key vr.IP.vr_status ])
    r.IP.ip_results
  |> List.sort compare

(* the verdict summary both kinds of job print, so the parent can check
   a traced job against an untraced one field by field *)
let summary ~verdict ~(impl : IP.report) ~lemmas ~lemmas_ok ~certified ~steps
    ~job_s ~metrics =
  J.Obj
    [
      ("verdict", J.String verdict);
      ("job_s", J.String (Printf.sprintf "%.17g" job_s));
      ("total", J.Int impl.IP.ip_total);
      ("auto", J.Int impl.IP.ip_auto);
      ("hinted", J.Int impl.IP.ip_hinted);
      ("residual", J.Int impl.IP.ip_residual);
      ("carried", J.Int impl.IP.ip_carried);
      ("lemmas", J.Int lemmas);
      ("lemmas_ok", J.Int lemmas_ok);
      ("certified", J.Int certified);
      ("steps", J.Int steps);
      ("keys", J.List (List.map (fun k -> J.String k) (vc_keys impl)));
      ("rss_mb", J.String (Printf.sprintf "%.17g" (Util.vmhwm_mb "self")));
      ("metrics", Util.metrics_to_json metrics);
    ]

let report_summary (r : O.report) =
  let impl = Option.value r.O.o_impl ~default:IP.empty in
  let certified, steps =
    match r.O.o_certify with
    | Some a -> (a.Refactor.Certify.au_certified, a.Refactor.Certify.au_steps)
    | None -> (0, r.O.o_refactor_steps)
  in
  summary
    ~verdict:(Fmt.str "%a" O.pp_verdict r.O.o_verdict)
    ~impl
    ~lemmas:(List.length r.O.o_lemmas)
    ~lemmas_ok:(List.length (List.filter (fun (_, h, _) -> h) r.O.o_lemmas))
    ~certified ~steps ~job_s:r.O.o_time ~metrics:[]

(* ------------------------------------------------------------------ *)
(* Untraced jobs                                                       *)
(* ------------------------------------------------------------------ *)

let certified_config run_dir =
  { O.default_config with O.oc_run_dir = Some run_dir; oc_certify = true; oc_jobs = jobs }

(* one cold certified verify: empty run directory, empty proof cache *)
let cold ~run_dir = report_summary (O.run ~config:(certified_config run_dir) cs)

(* one incremental verify of [sub]'s edit against [baseline], sharing
   the baseline's proof cache *)
let edit ~baseline ~run_dir ~sub =
  report_summary
    (O.run
       ~config:
         { (certified_config run_dir) with
           O.oc_baseline = Some baseline;
           oc_edit = Some (benign_edit sub);
           oc_carry = true }
       cs)

(* the reference for [edit]: the same edit fully re-proved — no carry
   and no proof cache.  The implication lemmas are the same for every
   edit and are checked on the incremental job itself, so they are left
   out here *)
let edit_reference ~baseline ~run_dir ~sub =
  report_summary
    (O.run
       ~config:
         { (certified_config run_dir) with
           O.oc_baseline = Some baseline;
           oc_edit = Some (benign_edit sub);
           oc_carry = false;
           oc_cache = O.Cache_off;
           oc_hooks = { O.no_hooks with O.h_lemmas = (fun _ -> []) } }
       cs)

(* ------------------------------------------------------------------ *)
(* Traced jobs                                                         *)
(* ------------------------------------------------------------------ *)

type tracer = { mutable metrics : (string * float) list }

let put tr k v = tr.metrics <- (k, v) :: tr.metrics

let timed tr k f =
  let v, s = Util.time f in
  put tr k s;
  v

let policy =
  Echo.Retry.with_deadline O.default_config.O.oc_vc_deadline_s
    O.default_config.O.oc_retry

let prove ?carry ~cache env annotated =
  IP.run_resilient ~policy ?carry ~budget:O.default_config.O.oc_budget
    ~max_steps:O.default_config.O.oc_max_steps ~jobs ~cache env annotated

(* the implication stage, one lemma at a time; a raising lemma fails,
   as in [Echo.Implication.run] *)
let implication tr extracted =
  let lemmas = cs.Echo.Pipeline.cs_lemmas ~extracted in
  let outcomes, total =
    Util.time (fun () ->
        List.map
          (fun (l : Echo.Implication.lemma) ->
            let holds, s =
              Util.time (fun () ->
                  match l.Echo.Implication.lm_run () with
                  | Echo.Implication.Holds _ -> true
                  | Echo.Implication.Fails _ -> false
                  | exception _ -> false)
            in
            (l.Echo.Implication.lm_name, holds, s))
          lemmas)
  in
  put tr "implication.s" total;
  put tr "implication.lemma_max_s" (List.fold_left (fun m (_, _, s) -> Float.max m s) 0.0 outcomes);
  List.iter (fun (name, _, s) -> put tr (Printf.sprintf "implication.lemma.%s_s" name) s) outcomes;
  (List.length outcomes, List.length (List.filter (fun (_, h, _) -> h) outcomes))

let extract_and_match tr env annotated =
  let extracted = timed tr "extract.s" (fun () -> Extract.extract_program env annotated) in
  ignore
    (timed tr "specl.match_s" (fun () ->
         Specl.Match_ratio.compare ~synonyms:cs.Echo.Pipeline.cs_synonyms
           ~original:cs.Echo.Pipeline.cs_original_spec ~extracted ()));
  extracted

let verdict_of ~certified ~steps ~(impl : IP.report) ~lemmas ~lemmas_ok =
  if certified = steps && impl.IP.ip_residual = 0 && impl.IP.ip_timed_out = 0
     && impl.IP.ip_infeasible = None && lemmas_ok = lemmas
  then "VERIFIED"
  else "NOT VERIFIED"

(* The cold certified verify as a composition of its layers:
   refactor+certify, annotate, vcgen, implementation proof (farm and
   cache), extract, structure match, implication.  After the job, two
   probes that the orchestrator does not run: a save of the proof cache,
   and the uncertified refactoring block by block with the FIPS-197
   known-answer gate after each block. *)
let trace_cold ~cache_dir =
  let tr = { metrics = [] } in
  let t0 = Util.now () in
  let certify =
    { (Refactor.Certify.default_config ()) with
      Refactor.Certify.cf_jobs = jobs;
      cf_budget = O.default_config.O.oc_budget;
      cf_cache = Some (Farm.Cache.open_ ~dir:cache_dir) }
  in
  let stages, history =
    timed tr "refactor.s" (fun () -> cs.Echo.Pipeline.cs_refactor ~certify ())
  in
  let _, final = List.hd (List.rev stages) in
  let steps = Refactor.History.step_count history in
  let st = Refactor.History.certification_stats history in
  let audit = Refactor.Certify.audit (Refactor.History.certificates history) in
  put tr "refactor.steps" (float_of_int steps);
  put tr "certify.targets" (float_of_int st.Refactor.Certify.ct_targets);
  put tr "certify.oracle_trials" (float_of_int st.Refactor.Certify.ct_oracle_trials);
  put tr "certify.vcs_generated" (float_of_int st.Refactor.Certify.ct_vcs_generated);
  put tr "certify.vcs_proved" (float_of_int st.Refactor.Certify.ct_vcs_proved);
  put tr "certify.oracle_s" st.Refactor.Certify.ct_oracle_seconds;
  put tr "certify.vc_s" st.Refactor.Certify.ct_vc_seconds;
  let env, annotated =
    timed tr "echo.annotate_s" (fun () ->
        Typecheck.check (cs.Echo.Pipeline.cs_annotate final))
  in
  let gen =
    timed tr "vcgen.s" (fun () ->
        Vcgen.generate ~budget:O.default_config.O.oc_budget env annotated)
  in
  put tr "vcgen.vcs" (float_of_int (List.length (Vcgen.all_vcs gen)));
  put tr "vcgen.nodes" (float_of_int (Vcgen.total_nodes gen));
  let cache = Farm.Cache.open_ ~dir:cache_dir in
  let impl = timed tr "impl_proof.s" (fun () -> prove ~cache env annotated) in
  put tr "impl_proof.attempts" (float_of_int impl.IP.ip_attempts);
  (* the prover's own per-VC seconds, as the proof report records them *)
  let vc_times = List.map (fun (vr : IP.vc_result) -> vr.IP.vr_time) impl.IP.ip_results in
  put tr "logic.prove_s" (List.fold_left ( +. ) 0.0 vc_times);
  put tr "logic.vc_max_s" (List.fold_left Float.max 0.0 vc_times);
  let extracted = extract_and_match tr env annotated in
  let lemmas, lemmas_ok = implication tr extracted in
  let job_s = Util.now () -. t0 in
  ignore (timed tr "farm.cache_save_s" (fun () -> Farm.Cache.save cache));
  let kat = ref 0.0 in
  let (), uncertified =
    Util.time (fun () ->
        let env0, prog0 = Aes.Aes_impl.checked () in
        let h = Refactor.History.create env0 prog0 in
        List.iter
          (fun (b : Aes.Aes_refactoring.block) ->
            timed tr
              (Printf.sprintf "refactor.block.%02d_s" b.Aes.Aes_refactoring.b_index)
              (fun () -> b.Aes.Aes_refactoring.b_run h);
            let env, prog = Refactor.History.current h in
            let pass, s =
              Util.time (fun () -> Aes.Aes_kat.all_pass (Aes.Aes_kat.check_program env prog))
            in
            if not pass then failwith "known-answer test failed after a refactoring block";
            kat := !kat +. s)
          Aes.Aes_refactoring.blocks)
  in
  put tr "refactor.kat_s" !kat;
  put tr "refactor.uncertified_s" uncertified;
  summary
    ~verdict:(verdict_of ~certified:audit.Refactor.Certify.au_certified ~steps ~impl ~lemmas ~lemmas_ok)
    ~impl ~lemmas ~lemmas_ok ~certified:audit.Refactor.Certify.au_certified ~steps
    ~job_s ~metrics:tr.metrics

let load_checkpoint ~dir stage =
  match CK.load ~dir ~case:cs.Echo.Pipeline.cs_name stage with
  | Some (Ok p) -> p
  | Some (Error e) -> failwith ("unreadable checkpoint: " ^ e)
  | None -> failwith ("missing checkpoint " ^ CK.stage_name stage)

(* The incremental verify as a composition of its layers: checkpoint
   loads, the edit, change-impact planning with VC-digest refinement,
   the implementation proof with baseline carry over the baseline's
   cache, extract, structure match and implication. *)
let trace_edit ~baseline ~sub =
  let tr = { metrics = [] } in
  let t0 = Util.now () in
  let ck_refactor, ck_certify, ck_annotate, ck_impl =
    timed tr "echo.checkpoint_load_s" (fun () ->
        let l = load_checkpoint ~dir:baseline in
        (l CK.S_refactor, l CK.S_certify, l CK.S_annotate, l CK.S_impl))
  in
  let reparse src = snd (Typecheck.check (Parser.of_string src)) in
  let steps, certified =
    match (ck_refactor, ck_certify) with
    | CK.P_refactor { pr_final_src; pr_steps; _ }, CK.P_certify { pc_audit; _ } ->
        ignore (reparse pr_final_src);
        (pr_steps, pc_audit.Refactor.Certify.au_certified)
    | _ -> failwith "unexpected checkpoint payloads"
  in
  let base_src =
    match ck_annotate with CK.P_annotate { pa_src } -> pa_src | _ -> failwith "annotate"
  in
  let base_impl = match ck_impl with CK.P_impl r -> r | _ -> failwith "impl" in
  let env, annotated = Typecheck.check (benign_edit sub (Parser.of_string base_src)) in
  let plan =
    timed tr "analysis.impact_s" (fun () ->
        let plan = Analysis.Impact.compute ~old_p:(reparse base_src) ~new_p:annotated in
        let current =
          Vcgen.vc_digests
            (Vcgen.generate ~budget:O.default_config.O.oc_budget env annotated)
        in
        let baseline_digests =
          List.fold_left
            (fun acc (vr : IP.vc_result) ->
              let vc = vr.IP.vr_vc in
              let s = vc.Logic.Formula.vc_sub in
              let prev = Option.value ~default:[] (List.assoc_opt s acc) in
              (s, Logic.Formula.vc_digest vc :: prev) :: List.remove_assoc s acc)
            [] base_impl.IP.ip_results
          |> List.map (fun (s, ds) -> (s, List.rev ds))
        in
        Analysis.Impact.refine plan ~baseline:baseline_digests ~current)
  in
  put tr "analysis.impacted_subs" (float_of_int (List.length plan.Analysis.Impact.pl_impacted));
  let key (vc : Logic.Formula.vc) =
    vc.Logic.Formula.vc_sub ^ "|" ^ vc.Logic.Formula.vc_name ^ "|"
    ^ Logic.Formula.vc_digest vc
  in
  let carry_tbl = Hashtbl.create 256 in
  List.iter
    (fun (vr : IP.vc_result) ->
      let vc = vr.IP.vr_vc in
      match vr.IP.vr_status with
      | IP.Timed_out _ -> ()
      | _ ->
          if List.mem vc.Logic.Formula.vc_sub plan.Analysis.Impact.pl_carried then
            Hashtbl.replace carry_tbl (key vc) vr)
    base_impl.IP.ip_results;
  let cache =
    timed tr "farm.cache_open_s" (fun () ->
        Farm.Cache.open_ ~dir:(Filename.concat baseline "proof-cache"))
  in
  let impl =
    timed tr "impl_proof.incremental_s" (fun () ->
        prove ~carry:(fun vc -> Hashtbl.find_opt carry_tbl (key vc)) ~cache env annotated)
  in
  put tr "impl_proof.reproved" (float_of_int (impl.IP.ip_total - impl.IP.ip_carried));
  put tr "impl_proof.carried_frac" (Util.frac impl.IP.ip_carried impl.IP.ip_total);
  put tr "farm.cache_hit_frac"
    (Util.frac impl.IP.ip_cache_hits (impl.IP.ip_cache_hits + impl.IP.ip_cache_misses));
  (* these stages do the same work as in the cold composition, which
     reports their times *)
  let unreported = { metrics = [] } in
  let extracted = extract_and_match unreported env annotated in
  let lemmas, lemmas_ok = implication unreported extracted in
  let job_s = Util.now () -. t0 in
  summary
    ~verdict:(verdict_of ~certified ~steps ~impl ~lemmas ~lemmas_ok)
    ~impl ~lemmas ~lemmas_ok ~certified ~steps ~job_s ~metrics:tr.metrics

(* ------------------------------------------------------------------ *)
(* Child entry                                                         *)
(* ------------------------------------------------------------------ *)

let main = function
  | [ "cold"; run_dir ] -> cold ~run_dir
  | [ "edit"; baseline; run_dir; sub ] -> edit ~baseline ~run_dir ~sub
  | [ "edit-ref"; baseline; run_dir; sub ] -> edit_reference ~baseline ~run_dir ~sub
  | [ "trace-cold"; cache_dir ] -> trace_cold ~cache_dir
  | [ "trace-edit"; baseline; sub ] -> trace_edit ~baseline ~sub
  | args -> invalid_arg ("child: " ^ String.concat " " args)
