(* Checks of the CLI outputs the pipeline workload kept (its first pass,
   under out/NAME.out), each against a reference made apart from the
   command that produced it:
   - translate to Datalog: over a seeded test database, the translated
     program's facts equal the null-free chase of the source theory
     (Thms. 1 and 3); to weakly guarded: the output is weakly guarded;
   - analyze: the verdict matches the zoo chain's ground truth;
   - answer: the printed tuples are the null-free chase answers. *)

open Guarded_core

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lines s = List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' s)

(* A database over the theory's extensional relations: a few random
   facts over six constants, so joins and recursion have work to do. *)
let test_db seed theory =
  let st = Gen.rng seed 99 in
  let consts = List.init 6 (Fmt.str "k%d") in
  List.concat_map
    (fun (rel, _, arity) ->
      List.init 5 (fun _ -> Gen.atom rel (List.init arity (fun _ -> Gen.pick st consts))))
    (Theory.Rel_set.elements (Theory.edb_relations theory))

(* The relation facts a Datalog program derives, as sorted text. *)
let datalog_facts program facts rels =
  let db = Database.of_atoms facts in
  if Guarded_datalog.Seminaive.mentions_acdom program then Database.materialize_acdom db;
  let out = Guarded_datalog.Seminaive.eval program db in
  List.concat_map
    (fun rel -> List.map (fun t -> rel ^ Refs.tuple_text t) (Database.constant_tuples out rel))
    rels
  |> Refs.canon

let chase_facts source facts rels =
  let idx = Refs.index_of (Refs.chase source facts) in
  List.concat_map (fun rel -> List.map (fun t -> rel ^ Refs.tuple_text t) (Refs.tuples idx rel)) rels
  |> Refs.canon

let source_relations theory =
  List.sort_uniq String.compare
    (List.map (fun (r, _, _) -> r) (Theory.Rel_set.elements (Theory.relations theory)))

(* [output] is what the command printed; returns the failures. *)
let check ~seed ~files (cmd : Gen.cli) output =
  let fails = ref [] in
  let fail fmt = Fmt.kstr (fun m -> fails := m :: !fails) fmt in
  (match cmd with
  | Gen.Translate { name; file; target } -> (
    let source = Parser.theory_of_string (List.assoc file files) in
    (* translations name their fresh variables ?!pN, which the rule
       parser does not accept; rename them apart before parsing *)
    let output = Str.global_replace (Str.regexp_string "?!") "?Fresh_" output in
    match Parser.theory_of_string output with
    | exception e -> fail "translate %s: unparseable output (%s)" name (Printexc.to_string e)
    | out when target = "weakly-guarded" ->
      if not (Classify.is_weakly_guarded out) then fail "translate %s: not weakly guarded" name
    | out ->
      let facts = test_db seed source in
      let rels = source_relations source in
      if not (Theory.is_datalog out) then fail "translate %s: not Datalog" name
      else if datalog_facts out facts rels <> chase_facts source facts rels then
        fail "translate %s: the translation's facts differ from the chase" name)
  | Gen.Analyze { name; cyclic; _ } ->
    let verdict =
      List.find_opt (fun l -> String.length l > 12 && String.sub l 0 12 = "termination:") (lines output)
    in
    let starts p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p in
    let ok =
      match verdict with
      | None -> false
      | Some v ->
        let v = String.trim (String.sub v 12 (String.length v - 12)) in
        if cyclic then starts "unknown" v else starts "terminating" v
    in
    if not ok then fail "analyze %s: verdict disagrees with the zoo's ground truth" name
  | Gen.Answer { name; file; db; query; _ } ->
    let source = Parser.theory_of_string (List.assoc file files) in
    let facts = Database.to_list (Parser.database_of_string (List.assoc db files)) in
    let want = chase_facts source facts [ query ] in
    if Refs.canon (lines output) <> want then
      fail "answer %s: %d tuples printed, the chase has %d" name (List.length (lines output))
        (List.length want));
  !fails

let main ~seed ~dir =
  let p = Gen.pipeline seed in
  let fails =
    List.concat_map
      (fun (cmd : Gen.cli) ->
        let name =
          match cmd with
          | Gen.Translate { name; _ } | Gen.Analyze { name; _ } | Gen.Answer { name; _ } -> name
        in
        check ~seed ~files:p.Gen.files cmd
          (read_file (Filename.concat dir (Filename.concat "out" (name ^ ".out")))))
      p.Gen.commands
  in
  List.iter (fun m -> Fmt.epr "CHECK FAILED: %s@." m) fails;
  print_endline (Fmt.str {|{"correct": %b}|} (fails = []))
