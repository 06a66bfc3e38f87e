(* The case-study record the Echo stages run over; see pipeline.mli. *)

open Minispark

type case_study = {
  cs_name : string;
  cs_refactor :
    ?certify:Refactor.Certify.config ->
    unit -> (Typecheck.env * Ast.program) list * Refactor.History.t;
  cs_annotate : Ast.program -> Ast.program;
  cs_original_spec : Specl.Sast.theory;
  cs_synonyms : (string * string) list;
  cs_lemmas : extracted:Specl.Sast.theory -> Implication.lemma list;
}
