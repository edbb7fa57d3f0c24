(* The harness's own tests: the generator is a function of the seed, and
   every checker rejects a perturbed answer set (and accepts the true
   one). Exits 1 when any case fails. *)

open Guarded_core

let failed = ref 0
let passed = ref 0

let expect what ok =
  if ok then incr passed
  else begin
    Fmt.pr "FAIL %s@." what;
    incr failed
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> really_input_string ic (in_channel_length ic))

let generate workload seed tag =
  let dir = Fmt.str "selftest-%s-%s" tag workload in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.map (fun f -> (f, read_file (Filename.concat dir f))) (Gen.write ~workload ~seed dir)

let payloads ?(conns = [ 0 ]) rounds =
  List.concat_map
    (fun conn ->
      List.concat_map
        (fun r ->
          List.concat_map
            (function
              | Gen.Read f -> [ f.Gen.payload ]
              | Gen.Batch frames -> List.map (fun (f : Gen.frame) -> f.Gen.payload) frames)
            (rounds conn r))
        [ 0; 1; 2 ])
    conns

let determinism () =
  List.iter
    (fun w ->
      let a = generate w 7 "a" and b = generate w 7 "b" and c = generate w 8 "c" in
      expect (Fmt.str "%s: seed 7 writes byte-identical files twice" w) (a = b);
      expect (Fmt.str "%s: seeds 7 and 8 write different files" w) (a <> c))
    [ "serve-read"; "serve-churn"; "serve-demand"; "pipeline" ];
  let same f = f 7 = f 7 && f 7 <> f 8 in
  expect "serve-read: request frames are a function of the seed"
    (same (fun s -> payloads (fst (Gen.serve_read s)).Gen.rounds));
  expect "serve-churn: request frames are a function of the seed"
    (same (fun s -> payloads ~conns:[ 0; 1 ] (Gen.serve_churn s).Gen.rounds));
  expect "serve-demand: request frames are a function of the seed"
    (same (fun s -> payloads (Gen.serve_demand s).Gen.d_rounds))

let reply lines = Fmt.str "ANSWERS %d\n%s" (List.length lines) (String.concat "\n" lines)

(* The true answer set passes; one tuple dropped, and one added, fail. *)
let perturbations lines =
  match lines with
  | [] -> [ [ "(bogus)" ] ]
  | _ :: rest -> [ rest; "(bogus)" :: lines ]

let rejects ~name check lines =
  Checks.failures := [];
  check (reply lines);
  expect (Fmt.str "%s: accepts the true answers" name) (!Checks.failures = []);
  List.iteri
    (fun i p ->
      Checks.failures := [];
      check (reply p);
      expect (Fmt.str "%s: rejects perturbation %d" name i) (!Checks.failures <> []))
    (perturbations lines)

let checkers () =
  let theory = Lazy.force Gen.pub_theory in
  let st = Gen.rng 7 0 in
  let g = Gen.group st ~prefix:"s" ~recursive:true and h = Gen.group st ~prefix:"u" ~recursive:true in
  let group_ref = Refs.reference theory g.Gen.g_facts in
  let both = Refs.reference theory (g.Gen.g_facts @ h.Gen.g_facts) in
  let a = g.Gen.g_authors.(0) in
  List.iter
    (fun text ->
      let table expect r =
        let t = Hashtbl.create 1 in
        Hashtbl.replace t (text, r, false) expect;
        t
      in
      rejects ~name:("group read " ^ text)
        (fun r -> Checks.reads ~theory ~whole:(lazy []) (table (Gen.Group (g, true)) r))
        (Refs.expected group_ref text);
      rejects ~name:("whole-state read " ^ text)
        (fun r -> Checks.reads ~theory ~whole:(lazy [ group_ref; both ]) (table Gen.Whole r))
        (Refs.expected both text);
      (* with one writer, the read sees the state its own commits left *)
      let other = Refs.expected both text and own = Refs.expected group_ref text in
      if other <> own then begin
        Checks.failures := [];
        Checks.reads ~exact:true ~theory ~whole:(lazy [ group_ref; both ])
          (table Gen.Whole (reply other));
        expect ("exact whole-state read " ^ text ^ ": rejects the other state")
          (!Checks.failures <> [])
      end)
    [ Fmt.str "? q(%s)" a; Fmt.str "? citing(%s, ?Y)" a; "? influential";
      Fmt.str "?? hasAuthor(X, %s), cites(X, Y), cites(Y, Z), cites(Z, X) -> t(X)." a ];
  let w = Gen.serve_demand 7 in
  let closed ?exact fr f r =
    let t = Hashtbl.create 1 in
    Hashtbl.replace t (fr.Gen.text, r, false) (Gen.Closed f);
    Checks.reads ?exact ~theory ~whole:(lazy []) t
  in
  (match
     List.find_map
       (function Gen.Read ({ Gen.expect = Some (Gen.Closed f); _ } as fr) -> Some (fr, f) | _ -> None)
       (w.Gen.d_rounds 0 0)
   with
  | Some (fr, f) -> rejects ~name:("closed-form read " ^ fr.Gen.text) (closed fr f) (f false)
  | None -> expect "serve-demand has closed-form reads" false);
  (* every seed's rounds read answers that the toggle changes, and with
     one writer the stale answer is rejected *)
  List.iter
    (fun seed ->
      let w = Gen.serve_demand seed in
      let toggled =
        List.filter_map
          (function
            | Gen.Read ({ Gen.expect = Some (Gen.Closed f); _ } as fr) when f false <> f true ->
              Some (fr, f)
            | _ -> None)
          (List.concat_map (w.Gen.d_rounds 0) (List.init 64 Fun.id))
      in
      expect (Fmt.str "serve-demand seed %d: every round reads a toggled answer" seed)
        (List.for_all
           (fun r ->
             List.exists
               (function
                 | Gen.Read { Gen.expect = Some (Gen.Closed f); _ } -> f false <> f true
                 | _ -> false)
               (w.Gen.d_rounds 0 r))
           (List.init 64 Fun.id));
      match toggled with
      | (fr, f) :: _ ->
        Checks.failures := [];
        closed ~exact:true fr f (reply (f true));
        expect (Fmt.str "serve-demand seed %d: exact check rejects the stale state" seed)
          (!Checks.failures <> [])
      | [] -> ())
    [ 1; 7; 101; 110 ];
  rejects ~name:"final-state scan of q"
    (fun r -> Checks.scans ~request:(fun _ -> r) ~label:"scan" [ "q" ] group_ref)
    (Refs.expected group_ref "? q");
  rejects ~name:"follower equality on citing"
    (fun r ->
      Checks.same_answers ~label:"follower" [ "citing" ]
        (fun _ -> reply (Refs.expected group_ref "? citing"))
        (fun _ -> r))
    (Refs.expected group_ref "? citing")

(* The CLI checks, on outputs computed here in place of the CLI's. *)
let pipeline_checks () =
  let p = Gen.pipeline 7 in
  let check cmd out = Pipeline_check.check ~seed:7 ~files:p.Gen.files cmd out in
  List.iter
    (fun (cmd : Gen.cli) ->
      match cmd with
      | Gen.Translate { name; file; target = "datalog" } ->
        let tr =
          Guarded_translate.Pipeline.to_datalog
            (Parser.theory_of_string (List.assoc file p.Gen.files))
        in
        let text = Gen.rules_text tr.Guarded_translate.Pipeline.datalog in
        expect ("translate " ^ name ^ ": accepts the translation") (check cmd text = []);
        expect ("translate " ^ name ^ ": rejects an empty program") (check cmd "" <> [])
      | Gen.Translate _ -> ()
      | Gen.Analyze { name; cyclic; _ } ->
        let v c = if c then "termination: unknown (probe)" else "termination: terminating (weak)" in
        expect ("analyze " ^ name ^ ": accepts the true verdict") (check cmd (v cyclic) = []);
        expect ("analyze " ^ name ^ ": rejects the opposite verdict") (check cmd (v (not cyclic)) <> [])
      | Gen.Answer { name; file; db; query; _ } ->
        let sigma = Parser.theory_of_string (List.assoc file p.Gen.files) in
        let facts = Database.to_list (Parser.database_of_string (List.assoc db p.Gen.files)) in
        let lines = Pipeline_check.chase_facts sigma facts [ query ] in
        let out l = String.concat "\n" l in
        expect ("answer " ^ name ^ ": accepts the chase answers") (check cmd (out lines) = []);
        List.iteri
          (fun i l ->
            expect (Fmt.str "answer %s: rejects perturbation %d" name i) (check cmd (out l) <> []))
          (perturbations lines))
    p.Gen.commands

let main () =
  determinism ();
  checkers ();
  pipeline_checks ();
  Fmt.pr "perfbench self-test: %d passed, %d failed@." !passed !failed;
  if !failed > 0 then exit 1
