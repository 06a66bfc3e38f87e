(* Parent side of the fresh-process jobs: re-execute this benchmark as
   [main.exe child <job> <args>] and read the one-line JSON summary the
   child prints.  The parent itself never spawns a domain, so forking it
   (here, and for the serve daemon) is always allowed. *)

type result = {
  r_json : Telemetry.Json.t;
  r_seconds : float;  (** from spawn to the summary line (the verdict) *)
}

(* a job that has printed nothing after this long is killed and fails *)
let timeout_s = 120.0

(* read [fd] to end of file; the time the first line completed, or
   [None] when the deadline passed first *)
let read_all fd ~deadline =
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let first_line = ref None in
  let rec go () =
    let left = deadline -. Util.now () in
    if left <= 0.0 then None
    else
      match Unix.select [ fd ] [] [] left with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | [], _, _ -> go ()
      | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> Some (Buffer.contents buf, !first_line)
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              if !first_line = None && Bytes.contains (Bytes.sub chunk 0 n) '\n' then
                first_line := Some (Util.now ());
              go ())
  in
  go ()

let run args =
  let exe = Sys.executable_name in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = Util.now () in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: "child" :: args))
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let out = read_all rd ~deadline:(t0 +. timeout_s) in
  Unix.close rd;
  if out = None then (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  let _, status = Unix.waitpid [] pid in
  let job = List.hd args in
  match (out, status) with
  | None, _ -> Error (Printf.sprintf "child %s timed out after %.0fs" job timeout_s)
  | Some (text, Some t1), Unix.WEXITED 0 -> (
      let line = List.hd (String.split_on_char '\n' text) in
      match Telemetry.Json.of_string line with
      | Ok j -> Ok { r_json = j; r_seconds = t1 -. t0 }
      | Error e -> Error ("unparseable child summary: " ^ e))
  | Some (_, None), Unix.WEXITED 0 -> Error (Printf.sprintf "child %s printed no summary" job)
  | _, Unix.WEXITED n -> Error (Printf.sprintf "child %s exited %d" job n)
  | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
      Error (Printf.sprintf "child %s killed by signal %d" job n)

(* the child side: run the job, print its summary, exit *)
let child_main job args =
  print_endline (Telemetry.Json.to_string (job args));
  exit 0

(* [map ~workers f xs] maps [f] over [xs] in [workers] forked copies of
   this (domain-free) process, each taking every [workers]-th item, and
   returns the results in order.  A failed worker raises [Failure]. *)
let map ~workers f xs =
  let items = Array.of_list xs in
  let mine = ref [] in
  let spawn k =
    let rd, wr = Unix.pipe ~cloexec:true () in
    flush_all ();
    match Unix.fork () with
    | 0 -> (
        Unix.close rd;
        let out = Unix.out_channel_of_descr wr in
        match
          Array.iteri (fun i x -> if i mod workers = k then mine := (i, f x) :: !mine) items
        with
        | () ->
            Marshal.to_channel out !mine [];
            close_out out;
            Unix._exit 0
        | exception _ -> Unix._exit 1)
    | pid ->
        Unix.close wr;
        (pid, Unix.in_channel_of_descr rd)
  in
  let results = Array.make (Array.length items) None in
  List.init workers spawn
  |> List.iter (fun (pid, ic) ->
         let part = try Some (Marshal.from_channel ic) with End_of_file | Failure _ -> None in
         close_in ic;
         match (part, Unix.waitpid [] pid) with
         | Some part, (_, Unix.WEXITED 0) ->
             List.iter (fun (i, r) -> results.(i) <- Some r) (part : (int * _) list)
         | _ -> failwith "a forked worker failed");
  Array.to_list results |> List.map Option.get
