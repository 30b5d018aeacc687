(** A key-value map ADT — the "transactional collection class" shape of the
    boosting literature the paper builds on (Carlstrom et al., Herlihy &
    Koskinen; paper §6).  Not one of the paper's four case-study
    structures, but the canonical first ADT a library author adds, so it
    doubles as the worked example of the user-facing workflow: write the
    precise specification, derive the SIMPLE core, synthesize detectors.

    Methods: [put k v] (returns the previous binding), [get k],
    [remove k] (returns the removed binding), [size ()].

    The precise specification is ONLINE-CHECKABLE (conditions compare
    previous-binding return values); its SIMPLE core — key disequalities
    with [size] conflicting with mutators — is derived mechanically by
    {!Commlat_core.Strengthen.simple_spec} and admits the read/write
    key-locking scheme of Carlstrom et al. *)

open Commlat_core

type t = { tbl : Value.t Value.Tbl.t }

let create () = { tbl = Value.Tbl.create 64 }

let get t k = Value.Tbl.find_opt t.tbl k

let put t k v =
  let old = get t k in
  Value.Tbl.replace t.tbl k v;
  old

let remove t k =
  let old = get t k in
  (match old with Some _ -> Value.Tbl.remove t.tbl k | None -> ());
  old

let size t = Value.Tbl.length t.tbl

let bindings t =
  Value.Tbl.fold (fun k v acc -> (k, v) :: acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> Value.compare a b)

let clear t = Value.Tbl.reset t.tbl

(* ------------------------------------------------------------------ *)
(* Methods and specifications                                          *)
(* ------------------------------------------------------------------ *)

let m_put = Invocation.meth "put" 2
let m_get = Invocation.meth ~mutates:false "get" 1
let m_remove = Invocation.meth "remove" 1
let m_size = Invocation.meth ~mutates:false "size" 0
let methods = [ m_put; m_get; m_remove; m_size ]

(** The precise specification.  [put]'s return value (the previous
    binding) and the written value both matter:

    - two puts commute iff keys differ, or both wrote the value the other
      one's return reports unchanged — we use the sound and nearly precise
      "keys differ or both stores wrote equal values and saw equal previous
      bindings";
    - put/get: keys differ, or the get saw exactly what the put wrote
      (then swapping changes nothing)… which is not expressible without
      comparing [r2] to [v1[1]]; both are plain values, so it is;
    - remove behaves as a put of "absent";
    - [size] commutes with mutations that did not change the domain
      (a put whose return was [Some _], a remove that returned [None]). *)
let precise_spec () =
  let open Formula in
  let k1 = arg1 0 and k2 = arg2 0 in
  let v1 = arg1 1 and v2 = arg2 1 in
  let s =
    Spec.create
      ~vfuns:
        [ ("some", function [ v ] -> Value.Opt (Some v) | _ -> Value.type_error "some/1") ]
      ~adt:"kvmap" methods
  in
  let keys_differ = ne k1 k2 in
  (* put ; put : different keys, or same value written and same previous
     binding observed (the second put is then a no-op replay) *)
  Spec.add_sym s "put" "put" (keys_differ ||| (eq v1 v2 &&& eq ret1 ret2));
  (* put ; get : different keys, or the put was a no-op (it re-wrote the
     binding it found: r1 = Some v1), in which case the get is unaffected
     by the swap *)
  Spec.add_sym s "put" "get" (keys_differ ||| eq ret1 (vfun "some" [ v1 ]));
  (* put ; remove : different keys only (a remove after a put undoes it) *)
  Spec.add_sym s "put" "remove" keys_differ;
  (* remove ; remove : different keys, or both found nothing *)
  Spec.add_sym s "remove" "remove"
    (keys_differ ||| (eq ret1 (const (Value.Opt None)) &&& eq ret2 (const (Value.Opt None))));
  (* remove ; get : different keys, or the key was already absent *)
  Spec.add_sym s "remove" "get" (keys_differ ||| eq ret1 (const (Value.Opt None)));
  Spec.add_sym s "get" "get" True;
  (* size vs mutators: commutes when the domain did not change *)
  Spec.add_sym s "size" "size" True;
  Spec.add_sym s "size" "get" True;
  (* put that replaced an existing binding keeps the domain: r != None *)
  Spec.add_directed s ~first:"put" ~second:"size"
    (ne ret1 (const (Value.Opt None)));
  Spec.add_directed s ~first:"size" ~second:"put"
    (ne ret2 (const (Value.Opt None)));
  Spec.add_directed s ~first:"remove" ~second:"size"
    (eq ret1 (const (Value.Opt None)));
  Spec.add_directed s ~first:"size" ~second:"remove"
    (eq ret2 (const (Value.Opt None)));
  s

(** SIMPLE core (derived mechanically): key disequalities; [size]
    conflicts with every mutator; lockable with r/w key locks. *)
let simple_spec () = Strengthen.simple_spec ~adt:"kvmap_rw" (precise_spec ())

(* ------------------------------------------------------------------ *)
(* Execution plumbing                                                  *)
(* ------------------------------------------------------------------ *)

let exec (t : t) name (args : Value.t array) : Value.t =
  match (name, args) with
  | "put", [| k; v |] -> Value.Opt (put t k v)
  | "get", [| k |] -> Value.Opt (get t k)
  | "remove", [| k |] -> Value.Opt (remove t k)
  | "size", [||] -> Value.Int (size t)
  | _ -> Value.type_error "kvmap: bad invocation %s" name

(** Semantic undo driven by the recorded previous binding. *)
let undo (t : t) (inv : Invocation.t) =
  let k () = inv.Invocation.args.(0) in
  match (inv.Invocation.meth.Invocation.name, inv.Invocation.ret) with
  | ("put" | "remove"), Value.Opt (Some old) -> ignore (put t (k ()) old)
  | "put", Value.Opt None -> ignore (remove t (k ()))
  | _ -> ()

let hooks (t : t) =
  Gatekeeper.hooks
    ~undo:(fun inv -> undo t inv)
    ~redo:(fun inv -> ignore (exec t inv.Invocation.meth.Invocation.name inv.Invocation.args))
    (fun name _ -> raise (Formula.Unsupported ("kvmap sfun " ^ name)))

(** The abstract state, as the model and the oracle encode it: the
    bindings as pairs, sorted by key. *)
let snapshot t =
  Value.List (List.map (fun (k, v) -> Value.Pair (k, v)) (bindings t))

let model () : History.model =
  let t = create () in
  {
    History.reset = (fun () -> clear t);
    apply = exec t;
    snapshot = (fun () -> snapshot t);
  }
