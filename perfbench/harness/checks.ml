(* The answer checks. Each compares served replies with a reference
   from [Refs] or with the generator's closed forms, and records every
   disagreement in [failures]. *)

let failures = ref []
let fail fmt = Fmt.kstr (fun m -> failures := m :: !failures) fmt

(* [exact]: one connection wrote every commit, each toggling the state,
   so the parity of its commits before a read says which of the two
   states ([whole], or the closed form's argument) the read must see;
   otherwise either state passes. *)
let reads ?(exact = false) ~theory ~whole (reads : (string * string * bool, Gen.expect) Hashtbl.t) =
  let group_refs = Hashtbl.create 256 in
  let group_ref (g : Gen.group) present =
    if not present then Refs.reference theory []
    else
      let key = g.Gen.g_pubs.(0) in
      match Hashtbl.find_opt group_refs key with
      | Some r -> r
      | None ->
        let r = Refs.reference theory g.Gen.g_facts in
        Hashtbl.replace group_refs key r;
        r
  in
  Hashtbl.iter
    (fun (text, reply, odd) expect ->
      match Refs.answer_lines reply with
      | None -> () (* a failed operation, already counted *)
      | Some served ->
        let allowed =
          match expect with
          | Gen.Group (g, present) -> [ Refs.expected (group_ref g present) text ]
          | Gen.Whole when exact ->
            [ Refs.expected (List.nth (Lazy.force whole) (Bool.to_int odd)) text ]
          | Gen.Whole -> List.map (fun r -> Refs.expected r text) (Lazy.force whole)
          | Gen.Closed f when exact -> [ Refs.canon (f odd) ]
          | Gen.Closed f -> [ Refs.canon (f false); Refs.canon (f true) ]
        in
        if not (List.mem served allowed) then
          fail "%s: served %d answers, none of the %d reference states match" text
            (List.length served) (List.length allowed))
    reads

(* Whole-relation scans of the served state against a reference. *)
let scans ~request ~label rels reference =
  List.iter
    (fun rel ->
      let text = "? " ^ rel in
      match Refs.answer_lines (request text) with
      | None -> fail "%s: %s did not answer" label text
      | Some served ->
        let want = Refs.expected reference text in
        if served <> want then
          fail "%s: %s served %d tuples, reference has %d" label text (List.length served)
            (List.length want))
    rels


(* A follower agrees with its primary when every relation reads the
   same from both. *)
let same_answers ~label rels read_a read_b =
  List.iter
    (fun rel ->
      let a = Refs.answer_lines (read_a ("? " ^ rel)) and b = Refs.answer_lines (read_b ("? " ^ rel)) in
      if a = None || a <> b then fail "%s: the two servers differ on %s" label rel)
    rels
