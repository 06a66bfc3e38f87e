(* The serve_mix workload: a seeded job stream against a forked
   [Serve.Daemon] (2 worker processes, one shared proof cache), driven
   through [Serve.Client] as a closed loop with 2 jobs in flight over one
   connection.

   The stream runs over the three example programs in turn.  After 8
   fresh warm-up jobs, every block of 10 jobs is a seeded shuffle of:
   - 4 fresh variants: benign asserts [k = k] (k drawn from 1..4)
     prepended to 1-3 subprograms, under a leading comment naming the
     job, so no two variants are the same text and none is answered by
     dedup — the unchanged VCs hit the shared cache;
   - 4 exact resubmissions of an earlier job, answered by dedup;
   - 2 fresh variants naming an earlier job of the same program as
     its [baseline_job], so only the impacted subprograms are re-proved.
   A job only refers to jobs at least 8 places before it; if that job is
   still running, the client waits for it, so the inputs depend on the
   seed alone.

   Every verdict must be "verified", with per-VC (subprogram, name,
   status) keys equal to those of a one-shot [Echo.Verify.run] of the
   same source up to the job number in its leading comment, computed
   after the timed loop. *)

open Minispark
module P = Serve.Protocol
module J = Telemetry.Json

let programs = [ "checksum"; "sbox_lookup"; "stream" ]
let warmup = 8
let literals = 4
let gap = 8
let in_flight_max = 2
let workers = 2

type kind = Fresh | Dup | Based

type job = {
  j_index : int;
  j_kind : kind;
  j_program : string;
  j_source : string;
  j_baseline : int option;  (** job whose verdicts seed this one *)
  j_dep : int option;       (** job that must be finished before submission *)
}

let id i = Printf.sprintf "j%d" i

(* ------------------------------------------------------------------ *)
(* The seeded stream                                                   *)
(* ------------------------------------------------------------------ *)

type generator = {
  g_rng : Random.State.t;
  g_base : (string * Ast.program) list;
  g_jobs : (int, job) Hashtbl.t;
  g_origins : (string, int list) Hashtbl.t;  (** non-duplicate jobs, newest first *)
  mutable g_block : kind list;  (** rest of the current block of 10 *)
}

let generator ~seed base =
  {
    g_rng = Random.State.make [| seed; 0x5e7e |];
    g_base = List.map (fun (n, src) -> (n, Parser.of_string src)) base;
    g_jobs = Hashtbl.create 4096;
    g_origins = Hashtbl.create 8;
    g_block = [];
  }

(* The asserted literals come from a small pool so that the set of
   distinct VCs, and with it the shared cache, stops growing early in a
   run: every job's worker re-reads and rewrites the whole cache index,
   so a cache that grew with every job would make latency a function of
   how long the run has been going. *)
let variant g program ~tag =
  let prog = List.assoc program g.g_base in
  let subs = List.map (fun sp -> sp.Ast.sub_name) (Ast.subprograms prog) in
  let k = 1 + Random.State.int g.g_rng (min 3 (List.length subs)) in
  let chosen = List.filteri (fun i _ -> i < k) (Util.shuffle g.g_rng subs) in
  let assertion () =
    let k = 1 + Random.State.int g.g_rng literals in
    Ast.Assert (Ast.Binop (Ast.Eq, Ast.Int_lit k, Ast.Int_lit k))
  in
  let edited =
    List.fold_left
      (fun p s ->
        Ast.update_sub p s (fun sp -> { sp with Ast.sub_body = assertion () :: sp.Ast.sub_body }))
      prog chosen
  in
  Printf.sprintf "-- variant %d\n%s" tag (Pretty.program_to_string edited)

(* [source] with the job number dropped from its leading comment, which
   the verifier skips: the one-shot reference of every job with the same
   program text.  The comment keeps its line, so positions are unchanged *)
let untagged source =
  match String.index_opt source '\n' with
  | Some i when String.starts_with ~prefix:"-- variant " source ->
      "-- variant" ^ String.sub source i (String.length source - i)
  | _ -> source

let pick g xs = List.nth xs (Random.State.int g.g_rng (List.length xs))

(* earlier non-duplicate jobs of [program] at least [gap] places back *)
let origins g program ~before =
  List.filter (fun k -> k <= before - gap)
    (Option.value ~default:[] (Hashtbl.find_opt g.g_origins program))

let fresh g i program ~baseline =
  {
    j_index = i;
    j_kind = (if baseline = None then Fresh else Based);
    j_program = program;
    j_source = variant g program ~tag:(i + 1);
    j_baseline = baseline;
    j_dep = baseline;
  }

(* the kind mix in exact proportions, shuffled per block by the seed *)
let next_kind g =
  if g.g_block = [] then
    g.g_block <-
      Util.shuffle g.g_rng [ Fresh; Fresh; Fresh; Fresh; Dup; Dup; Dup; Dup; Based; Based ];
  match g.g_block with
  | k :: rest ->
      g.g_block <- rest;
      k
  | [] -> assert false

let generate g i =
  let program = List.nth programs (i mod List.length programs) in
  let job =
    if i < warmup then fresh g i program ~baseline:None
    else
      match next_kind g with
      | Fresh -> fresh g i program ~baseline:None
      | Dup ->
          let d = Hashtbl.find g.g_jobs (Random.State.int g.g_rng (i - gap + 1)) in
          { d with j_index = i; j_kind = Dup; j_dep = Some d.j_index }
      | Based -> (
          match origins g program ~before:i with
          | [] -> fresh g i program ~baseline:None
          | os -> fresh g i program ~baseline:(Some (pick g os)))
  in
  Hashtbl.replace g.g_jobs i job;
  if job.j_kind <> Dup then
    Hashtbl.replace g.g_origins job.j_program
      (i :: Option.value ~default:[] (Hashtbl.find_opt g.g_origins job.j_program));
  job

let job_at g i =
  match Hashtbl.find_opt g.g_jobs i with Some j -> j | None -> generate g i

(* a duplicate resubmits its original's exact fields under a new id *)
let spec_of (j : job) =
  let baseline_job = Option.map id j.j_baseline in
  P.job ~id:(id j.j_index) ~jobs:1 ?baseline_job ~source:j.j_source ()

(* ------------------------------------------------------------------ *)
(* The closed loop                                                     *)
(* ------------------------------------------------------------------ *)

type finished = {
  f_job : job;
  f_latency : float;
  f_stage_s : float;              (** sum of worker-reported stage seconds *)
  f_outcome : P.wire_outcome option;  (** [None]: rejected or lost *)
  f_dedup : bool;
  f_attempts : int;
}

type stream = {
  s_finished : finished list;
  s_wall : float;                      (** first submit to last verdict *)
  s_stages : (string * float) list;    (** every worker-reported stage *)
  s_depth_max : int;
  s_codec : float list;                (** per-job codec round trips (traced) *)
  s_rss_mb : float;                    (** peak RSS of the worker processes *)
}

type tracking = {
  t_job : job;
  t_submit : float;
  mutable t_stage_s : float;
}

(* one JSON round trip of a job spec and of its outcome through the wire
   codecs: the serialization work a job costs client and daemon *)
let codec_round_trip spec (o : P.wire_outcome) =
  let rt enc dec v =
    match dec (Result.get_ok (J.of_string (J.to_string (enc v)))) with
    | Ok _ -> ()
    | Error e -> failwith ("codec round trip: " ^ e)
  in
  snd
    (Util.time (fun () ->
         rt P.job_to_json P.job_of_json spec;
         rt P.outcome_to_json P.outcome_of_json o))

(* the verifying processes are the workers; the daemon only routes *)
let peak_rss cl =
  match Serve.Client.daemon_pid cl with
  | None -> 0.0
  | Some pid ->
      List.fold_left (fun m p -> Float.max m (Util.vmhwm_mb p)) 0.0 (Util.children_of pid)

let run_stream ~trace g cl ~stop =
  let tracked = Hashtbl.create 4 in
  let done_ = Hashtbl.create 4096 in
  let finished = ref [] and stages = ref [] and codec = ref [] in
  let depth_max = ref 0 in
  let next = ref 0 in
  let t_first = Util.now () in
  let t_last = ref t_first in
  let finish id ~outcome ~dedup ~attempts =
    match Hashtbl.find_opt tracked id with
    | None -> ()
    | Some t ->
        Hashtbl.remove tracked id;
        let now = Util.now () in
        t_last := now;
        Hashtbl.replace done_ t.t_job.j_index ();
        (match outcome with
        | Some o when trace -> codec := codec_round_trip (spec_of t.t_job) o :: !codec
        | _ -> ());
        finished :=
          { f_job = t.t_job; f_latency = now -. t.t_submit; f_stage_s = t.t_stage_s;
            f_outcome = outcome; f_dedup = dedup; f_attempts = attempts }
          :: !finished
  in
  let stopped = ref false in
  let rec fill () =
    if Hashtbl.length tracked < in_flight_max && not (!stopped || stop !next) then
      let j = job_at g !next in
      match j.j_dep with
      | Some d when not (Hashtbl.mem done_ d) -> ()  (* wait for it *)
      | _ -> (
          let spec = spec_of j in
          let t_submit = Util.now () in
          match Serve.Client.request cl (P.Submit spec) with
          | Error _ -> stopped := true
          | Ok () ->
              Hashtbl.replace tracked spec.P.js_id { t_job = j; t_submit; t_stage_s = 0.0 };
              incr next;
              fill ())
  in
  let rec loop () =
    fill ();
    if Hashtbl.length tracked > 0 then begin
      (match Serve.Client.next_event ~timeout_s:60.0 cl with
      | Error _ ->
          (* a silent or vanished daemon: every job in flight is lost *)
          stopped := true;
          Hashtbl.fold (fun id _ ids -> id :: ids) tracked []
          |> List.iter (fun id -> finish id ~outcome:None ~dedup:false ~attempts:0)
      | Ok (P.Accepted { ev_depth; _ }) -> depth_max := max !depth_max ev_depth
      | Ok (P.Stage { ev_job; ev_stage; ev_phase = P.P_ok s; _ }) ->
          stages := (ev_stage, s) :: !stages;
          Option.iter (fun t -> t.t_stage_s <- t.t_stage_s +. s)
            (Hashtbl.find_opt tracked ev_job)
      | Ok (P.Verdict { ev_job; ev_outcome; ev_dedup; ev_attempts }) ->
          finish ev_job ~outcome:(Some ev_outcome) ~dedup:ev_dedup ~attempts:ev_attempts
      | Ok (P.Rejected { ev_job; _ }) -> finish ev_job ~outcome:None ~dedup:false ~attempts:0
      | Ok P.Bye -> stopped := true
      | Ok (P.Stage _ | P.Stats_reply _) -> ());
      loop ()
    end
  in
  loop ();
  {
    s_finished = List.rev !finished;
    s_wall = !t_last -. t_first;
    s_stages = !stages;
    s_depth_max = !depth_max;
    s_codec = !codec;
    s_rss_mb = peak_rss cl;
  }

(* ------------------------------------------------------------------ *)
(* Set-up, references, checks                                          *)
(* ------------------------------------------------------------------ *)

let daemon_config ~work =
  let dir n =
    let d = Filename.concat work n in
    Util.mkdir_p d;
    d
  in
  { Serve.Daemon.default_config with
    Serve.Daemon.dc_jobs = workers;
    dc_capacity = 64;
    dc_cache_dir = Some (dir "cache");
    dc_state_dir = Some (dir "state") }

let read_programs () =
  List.map
    (fun n -> (n, Util.read_file (Filename.concat "examples/programs" (n ^ ".mspark"))))
    programs

let keys_of_summaries (rs : Echo.Verify.vc_summary list) =
  List.map
    (fun (s : Echo.Verify.vc_summary) ->
      String.concat "|" [ s.Echo.Verify.vs_sub; s.Echo.Verify.vs_name; s.Echo.Verify.vs_status ])
    rs
  |> List.sort compare

(* one-shot references, outside the daemon and without any cache: one
   per distinct untagged source, computed on two forked processes.  A
   run has thousands of variants but a few hundred program texts, so
   checking takes seconds, not most of the run's time.  [corrupt]
   appends to the first key of the first reference (the self-check's
   injected wrong verdict) *)
let references ?(corrupt = false) (fs : finished list) =
  let sources = List.sort_uniq compare (List.map (fun f -> untagged f.f_job.j_source) fs) in
  let refs =
    Proc.map ~workers:2
      (fun source ->
        let o = Echo.Verify.run ~source () in
        (Echo.Verify.verdict_string o.Echo.Verify.vj_verdict, keys_of_summaries o.Echo.Verify.vj_results))
      sources
  in
  let tbl = Hashtbl.create 4096 in
  List.iteri
    (fun i (src, (verdict, keys)) ->
      let keys =
        match keys with
        | k :: rest when corrupt && i = 0 -> (k ^ "-wrong") :: rest
        | ks -> ks
      in
      Hashtbl.replace tbl src (verdict, keys))
    (List.combine sources refs);
  tbl

(* [None] when the job's verdict is right, else what was wrong *)
let job_error refs f =
  match f.f_outcome with
  | None -> Some "rejected or lost"
  | Some o ->
      let verdict, keys = Hashtbl.find refs (untagged f.f_job.j_source) in
      if o.P.w_verdict <> "verified" || verdict <> "verified" then
        Some (Printf.sprintf "verdict %s, one-shot %s" o.P.w_verdict verdict)
      else if keys_of_summaries o.P.w_results <> keys then
        Some "per-VC keys differ from the one-shot verify's"
      else None
