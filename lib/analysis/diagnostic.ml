(** Diagnostics emitted by the specification analysis pass ([commlat lint]).

    A diagnostic carries a severity, a stable machine-readable code (the
    lint catalogue: ["unsound"], ["dead-disjunct"], …), the specification
    and method pair it concerns, an optional {!Commlat_core.Spec_lang}
    source position, and a rendered message.  Diagnostics print in the
    conventional [file:line:col: severity] form and serialize to JSON so CI
    can gate on them ([commlat lint --format json]). *)

open Commlat_core

type severity = Error | Warning | Info

let pp_severity ppf = function
  | Error -> Fmt.string ppf "error"
  | Warning -> Fmt.string ppf "warning"
  | Info -> Fmt.string ppf "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

type t = {
  sev : severity;
  code : string;  (** stable lint identifier, e.g. ["unsound"] *)
  spec : string;  (** ADT name of the specification concerned *)
  file : string option;
  pos : Spec_lang.pos option;
  pair : (string * string) option;  (** ordered method pair, if per-pair *)
  msg : string;
}

let make ?file ?pos ?pair ~spec ~sev ~code fmt =
  Format.kasprintf (fun msg -> { sev; code; spec; file; pos; pair; msg }) fmt

let is_error d = d.sev = Error

(** Sort: severity first, then file, source position, pair. *)
let compare_diag a b =
  let c = compare (severity_rank a.sev) (severity_rank b.sev) in
  if c <> 0 then c
  else
    let c = compare a.file b.file in
    if c <> 0 then c
    else
      let pos_key = function
        | Some (p : Spec_lang.pos) -> (p.line, p.col)
        | None -> (max_int, max_int)
      in
      let c = compare (pos_key a.pos) (pos_key b.pos) in
      if c <> 0 then c else compare (a.pair, a.code) (b.pair, b.code)

let sort ds = List.sort compare_diag ds

let pp ppf d =
  (match (d.file, d.pos) with
  | Some f, Some p -> Fmt.pf ppf "%s:%d:%d: " f p.Spec_lang.line p.Spec_lang.col
  | Some f, None -> Fmt.pf ppf "%s: " f
  | None, Some p -> Fmt.pf ppf "line %d, column %d: " p.Spec_lang.line p.Spec_lang.col
  | None, None -> ());
  Fmt.pf ppf "%a [%s]" pp_severity d.sev d.code;
  (match d.pair with
  | Some (m1, m2) -> Fmt.pf ppf " (%s ; %s)" m1 m2
  | None -> ());
  Fmt.pf ppf ": %s" d.msg

(* ---- JSON ---- *)

let to_json d : Commlat_obs.Jsonx.t =
  let open Commlat_obs.Jsonx in
  let opt f = function Some x -> f x | None -> [] in
  Obj
    ([
       ("severity", Str (Fmt.str "%a" pp_severity d.sev));
       ("code", Str d.code);
       ("spec", Str d.spec);
     ]
    @ opt (fun f -> [ ("file", Str f) ]) d.file
    @ opt
        (fun (p : Spec_lang.pos) -> [ ("line", Int p.line); ("col", Int p.col) ])
        d.pos
    @ opt (fun (m1, m2) -> [ ("pair", List [ Str m1; Str m2 ]) ]) d.pair
    @ [ ("message", Str d.msg) ])

(** Summary counts as (errors, warnings, infos). *)
let count ds =
  List.fold_left
    (fun (e, w, i) d ->
      match d.sev with
      | Error -> (e + 1, w, i)
      | Warning -> (e, w + 1, i)
      | Info -> (e, w, i + 1))
    (0, 0, 0) ds
