(* Specification-structure match ratio (Fig. 2(f)).

   The paper defines it as "the percentage of key structural elements —
   data types, operators, functions and tables — in the original
   specification that had direct counterparts in the extracted
   specification", evaluated by inspection.  Here the inspection is
   mechanised: element names are normalised (case, underscores) and an
   optional synonym dictionary supplied by the case study covers naming
   drift between the specification and the implementation. *)

open Sast

type element =
  | El_type of string
  | El_function of string
  | El_table of string
  | El_operator of prim

let element_name = function
  | El_type n | El_function n | El_table n -> n
  | El_operator p -> Spretty.prim_name p

let pp_element ppf = function
  | El_type n -> Fmt.pf ppf "type %s" n
  | El_function n -> Fmt.pf ppf "function %s" n
  | El_table n -> Fmt.pf ppf "table %s" n
  | El_operator p -> Fmt.pf ppf "operator %s" (Spretty.prim_name p)

(** The key structural elements of a theory. *)
let elements (th : theory) : element list =
  let types = List.map (fun (n, _) -> El_type n) th.th_types in
  let defs =
    List.map
      (fun d ->
        match d.sd_kind with
        | Dtable -> El_table d.sd_name
        | Dfun -> El_function d.sd_name)
      th.th_defs
  in
  let ops =
    List.concat_map prims_of_def th.th_defs
    |> List.sort_uniq compare
    |> List.filter (function
         (* comparisons and logical connectives are ambient, not key
            structural elements of a cipher specification *)
         | Peq | Pne | Plt | Ple | Pgt | Pge | Pand | Por | Pnot -> false
         | _ -> true)
    |> List.map (fun p -> El_operator p)
  in
  types @ defs @ ops

let normalise name =
  String.lowercase_ascii name
  |> String.to_seq
  |> Seq.filter (fun c -> c <> '_' && c <> '-')
  |> String.of_seq

type result = {
  mr_total : int;                     (** elements of the original spec *)
  mr_matched : int;
  mr_ratio : float;
  mr_unmatched : element list;        (** original elements with no counterpart *)
}

(** [compare ~synonyms ~original ~extracted]: fraction of [original]'s key
    elements with a direct counterpart in [extracted].  [synonyms] maps
    original element names to acceptable extracted names. *)
let compare ?(synonyms = []) ~original ~extracted () : result =
  let orig_els = elements original in
  let extr_els = elements extracted in
  let extr_names = List.map (fun e -> normalise (element_name e)) extr_els in
  let extr_ops =
    List.filter_map (function El_operator p -> Some p | _ -> None) extr_els
  in
  let synonyms =
    List.map (fun (a, b) -> (normalise a, normalise b)) synonyms
  in
  let matched e =
    match e with
    | El_operator p -> List.mem p extr_ops
    | _ ->
        let n = normalise (element_name e) in
        List.mem n extr_names
        || List.exists
             (fun (a, b) -> String.equal a n && List.mem b extr_names)
             synonyms
  in
  let matched_els, unmatched = List.partition matched orig_els in
  let total = List.length orig_els in
  {
    mr_total = total;
    mr_matched = List.length matched_els;
    mr_ratio =
      (if total = 0 then 1.0
       else float_of_int (List.length matched_els) /. float_of_int total);
    mr_unmatched = unmatched;
  }

let pp_result ppf r =
  Fmt.pf ppf "%d/%d matched (%.1f%%)" r.mr_matched r.mr_total (100.0 *. r.mr_ratio);
  match r.mr_unmatched with
  | [] -> ()
  | els -> Fmt.pf ppf "; unmatched: %a" Fmt.(list ~sep:(any ", ") pp_element) els
