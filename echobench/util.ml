(* Small helpers shared by the benchmark's parent and child processes:
   clocks, order statistics, scratch directories, process memory and
   JSON field access. *)

module J = Telemetry.Json

let now = Unix.gettimeofday

(* [time f] runs [f] and returns its result with the wall seconds it took *)
let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* nearest-rank percentile, [p] in 0..100; [nan] on no samples *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> Float.nan
  | sorted ->
      let n = List.length sorted in
      let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
      List.nth sorted (max 0 (min (n - 1) (rank - 1)))

(* the median proper: mean of the two middle samples on an even count *)
let median xs =
  match List.sort compare xs with
  | [] -> Float.nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* a seeded permutation *)
let shuffle rng xs =
  List.map (fun x -> (Random.State.bits rng, x)) xs |> List.sort compare |> List.map snd

let frac num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* ------------------------------------------------------------------ *)
(* Scratch directories (all under the checkout's .bench_work)           *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* copy a directory tree of regular files (a run directory, a cache) *)
let rec copy_tree src dst =
  mkdir_p dst;
  Array.iter
    (fun f ->
      let s = Filename.concat src f and d = Filename.concat dst f in
      if Sys.is_directory s then copy_tree s d else write_file d (read_file s))
    (Sys.readdir src)

(* ------------------------------------------------------------------ *)
(* Process memory                                                      *)
(* ------------------------------------------------------------------ *)

(* peak resident set ("VmHWM") of a process in MB; 0 when unreadable *)
let vmhwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match read_file path with
  | exception Sys_error _ -> 0.0
  | s ->
      String.split_on_char '\n' s
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ "VmHWM"; v ] ->
                 Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                     float_of_int kb /. 1024.0)
             | _ -> None)
      |> Option.value ~default:0.0

(* direct children of [pid], found through their stat records *)
let children_of pid =
  Sys.readdir "/proc" |> Array.to_list
  |> List.filter_map (fun d ->
         match int_of_string_opt d with
         | None -> None
         | Some _ -> (
             match read_file (Printf.sprintf "/proc/%s/stat" d) with
             | exception Sys_error _ -> None
             | stat -> (
                 (* "pid (comm) state ppid ...": comm may hold spaces *)
                 match String.rindex_opt stat ')' with
                 | None -> None
                 | Some i ->
                     let rest = String.sub stat (i + 2) (String.length stat - i - 2) in
                     (match String.split_on_char ' ' rest with
                     | _ :: ppid :: _ when int_of_string_opt ppid = Some pid -> Some d
                     | _ -> None))))

(* ------------------------------------------------------------------ *)
(* JSON field access                                                   *)
(* ------------------------------------------------------------------ *)

let field k j =
  match J.member k j with
  | Some v -> v
  | None -> failwith ("missing field " ^ k)

let int_field k j =
  match field k j with J.Int i -> i | _ -> failwith ("not an int: " ^ k)

let string_field k j =
  match field k j with J.String s -> s | _ -> failwith ("not a string: " ^ k)

(* metrics travel between processes as an object of numbers, each
   rendered in full ("%.17g") inside a string: Json.to_string rounds
   floats to microseconds, which would flatten a time of a few
   microseconds to a constant *)
let metrics_to_json ms =
  J.Obj (List.map (fun (k, v) -> (k, J.String (Printf.sprintf "%.17g" v))) ms)

let metrics_of_json j =
  match j with
  | J.Obj kvs ->
      List.map
        (fun (k, v) ->
          match v with
          | J.String s -> (k, float_of_string s)
          | _ -> failwith ("metric not a number: " ^ k))
        kvs
  | _ -> failwith "metrics: not an object"
