(* Seeded inputs for every workload. Everything here is a pure function
   of the seed: the same seed yields byte-identical theories, databases,
   request frames and CLI corpus files. The program under test only ever
   sees the files written by [write] and the frames built here. *)

open Guarded_core

let rng seed salt = Random.State.make [| 0x9e37; seed; salt |]
let pick st l = List.nth l (Random.State.int st (List.length l))

let atom rel args = Atom.make rel (List.map (fun c -> Term.Const c) args)

let rules_text theory =
  String.concat "" (List.map (fun r -> Fmt.str "%a.\n" Rule.pp r) (Theory.rules theory))

let facts_text facts = String.concat "" (List.map (fun a -> Fmt.str "%a.\n" Atom.pp a) facts)

(* ------------------------------------------------------------------ *)
(* serve-read / serve-churn: the publication theory over "groups"      *)

(* A frontier-guarded extension of the paper's running example (Ex. 1):
   existential keywords, a non-guarded topic-sharing rule, a recursive
   (DRed-maintained) influence rule and a nonrecursive join. The chase
   of every database is finite (the existential rule fires once per
   publication), so [Chase.Engine] on this theory is an exact reference
   for the translated Datalog program the server materializes. *)
let pub_theory_text =
  {|@r1 publication(X) -> exists K1, K2. keywords(X, K1, K2).
@r2 keywords(X, K1, K2) -> hasTopic(X, K1).
@r3 hasTopic(X0, Z), hasTopic(X1, Z) -> shared(Z).
@r4 shared(Z), hasTopic(X, Z), hasAuthor(X, A) -> q(A).
@r5 cites(X, Y), influential(Y) -> influential(X).
@r6 cites(X, Y), hasAuthor(X, A) -> citing(A, Y).
|}

let pub_theory = lazy (Parser.theory_of_string pub_theory_text)

(* Relations a client may read; the final-state check scans each. *)
let pub_relations = [ "q"; "shared"; "influential"; "citing"; "hasTopic"; "hasAuthor"; "cites" ]

type group = {
  g_pubs : string array;
  g_authors : string array;
  g_topics : string array;
  g_recursive : bool;  (** has cites/influential facts: touches the DRed component *)
  g_facts : Atom.t list;
}

(* A group's constants all carry its own prefix and no rule body joins
   two atoms without a shared variable, so the chase of a union of
   groups is the union of their chases: a read about one group can be
   checked against the chase of that group alone. *)
let group st ~prefix ~recursive =
  let pubs = Array.init 4 (fun i -> Fmt.str "p_%s_%d" prefix i) in
  let authors = Array.init 3 (fun i -> Fmt.str "a_%s_%d" prefix i) in
  let topics = Array.init 2 (fun i -> Fmt.str "t_%s_%d" prefix i) in
  let facts = ref [] in
  let add rel args = facts := atom rel args :: !facts in
  Array.iteri
    (fun i p ->
      add "publication" [ p ];
      add "hasAuthor" [ p; authors.(i mod 3) ];
      if Random.State.bool st then add "hasAuthor" [ p; authors.((i + 1) mod 3) ];
      if Random.State.int st 4 > 0 then add "hasTopic" [ p; pick st (Array.to_list topics) ])
    pubs;
  if recursive then begin
    (* a citation triangle plus one tail edge, and one seed *)
    add "cites" [ pubs.(0); pubs.(1) ];
    add "cites" [ pubs.(1); pubs.(2) ];
    add "cites" [ pubs.(2); pubs.(0) ];
    add "cites" [ pubs.(3); pubs.(Random.State.int st 3) ];
    add "influential" [ pubs.(Random.State.int st 4) ]
  end;
  { g_pubs = pubs; g_authors = authors; g_topics = topics; g_recursive = recursive;
    g_facts = List.rev !facts }

(* ------------------------------------------------------------------ *)
(* Wire requests                                                       *)

type op_kind = Point | Scan | Cq | Stage | Load | Commit

let kind_name = function
  | Point -> "query" | Scan -> "scan" | Cq -> "cq" | Stage -> "stage" | Load -> "load"
  | Commit -> "commit"

(* What a read must return. [Group g]: the reference chase of that group
   alone (present) or nothing (deleted); [Whole]: the reference over the
   whole served state; [Closed f]: the generator's closed form, given
   whether the toggled edge is in. *)
type expect =
  | Whole
  | Group of group * bool
  | Closed of (bool -> string list)

type frame = { kind : op_kind; payload : string; expect : expect option; text : string }

let read_frame kind text expect = { kind; payload = text; expect = Some expect; text }

let stage_frames ?(deletions = false) facts =
  List.map
    (fun a ->
      let text = Fmt.str "%s%a." (if deletions then "-" else "+") Atom.pp a in
      { kind = Stage; payload = text; expect = None; text })
    facts

let load_frame facts =
  let req = Guarded_server.Wire.load_of_facts facts in
  let payload = Guarded_server.Wire.print_request req in
  { kind = Load; payload; expect = None; text = Fmt.str "LOAD %d" (List.length facts) }

let commit_frame = { kind = Commit; payload = "COMMIT"; expect = None; text = "COMMIT" }

(* A logical operation: one read, or one commit batch (its staged frames
   then COMMIT). Latency of a batch runs from the first staged frame to
   the COMMITTED reply. *)
type op = Read of frame | Batch of frame list

(* ------------------------------------------------------------------ *)
(* serve-read                                                          *)

let read_groups = 1000
let read_ops_per_round = 200

type pub_workload = {
  base : group array;
  rounds : int -> int -> op list;  (** [rounds conn r]: the ops of round [r] *)
}

let point_read st g =
  let p = pick st (Array.to_list g.g_pubs) and a = pick st (Array.to_list g.g_authors) in
  let text =
    match Random.State.int st 6 with
    | 0 -> Fmt.str "? hasAuthor(%s, ?A)" p
    | 1 -> Fmt.str "? q(%s)" a
    | 2 -> Fmt.str "? citing(%s, ?Y)" a
    | 3 -> Fmt.str "? shared(%s)" (pick st (Array.to_list g.g_topics))
    | 4 -> Fmt.str "? influential(%s)" p
    | _ -> Fmt.str "? hasTopic(%s, ?T)" p
  in
  read_frame Point text (Group (g, true))

(* Cyclic: four atoms whose variables X, Y, Z form a triangle, so the
   planner runs WCOJ. Acyclic: a path join, or a two-disjunct union. *)
let cq_read st g =
  let a = pick st (Array.to_list g.g_authors) in
  let text =
    match Random.State.int st 3 with
    | 0 -> Fmt.str "?? hasAuthor(X, %s), cites(X, Y), cites(Y, Z), cites(Z, X) -> t(X)." a
    | 1 -> Fmt.str "?? hasAuthor(X, %s), hasTopic(X, Z), shared(Z) -> s(Z)." a
    | _ -> Fmt.str "?? citing(%s, Y) -> u(Y). ; hasAuthor(Y, %s) -> u(Y)." a a
  in
  read_frame Cq text (Group (g, true))

let scan_rels = [ "shared"; "influential"; "q" ]

let serve_read seed =
  let st = rng seed 1 in
  let base =
    Array.init read_groups (fun i ->
        group st ~prefix:(Fmt.str "g%d" i) ~recursive:(Random.State.int st 3 > 0))
  in
  let toggle = group st ~prefix:"tog" ~recursive:true in
  (* One connection replays a cyclic list of rounds, each ending with a
     small commit that alternately adds and retracts the toggle group, so
     the served state is always one of two known states. *)
  let round_count = 64 in
  let rounds =
    Array.init round_count (fun r ->
        let st = rng seed (1000 + r) in
        let reads =
          List.init read_ops_per_round (fun i ->
              let g = base.(Random.State.int st read_groups) in
              if i mod 50 = 0 then
                Read (read_frame Scan (Fmt.str "? %s" (pick st scan_rels)) Whole)
              else if i mod 5 = 0 then Read (cq_read st g)
              else Read (point_read st g))
        in
        reads @ [ Batch (stage_frames ~deletions:(r mod 2 = 1) toggle.g_facts @ [ commit_frame ]) ])
  in
  ({ base; rounds = (fun _ r -> rounds.(r mod round_count)) }, toggle)

(* ------------------------------------------------------------------ *)
(* serve-churn                                                         *)

let churn_base_groups = 600
let churn_window = 64  (* live churn groups per connection *)
let churn_batches_per_round = 4

(* Churn group [k] of connection [c]: its kind alternates with [k], so a
   batch (which adds group [window + k] and deletes group [k], both of
   the same kind) touches either only the counting strata or also the
   recursive influence component. *)
let churn_group seed c k =
  group (rng seed (50_000 + (c * 1_000_000) + k)) ~prefix:(Fmt.str "c%d_%d" c k)
    ~recursive:(k mod 2 = 1)

let churn_batch seed c k =
  let add = churn_group seed c (churn_window + k) and del = churn_group seed c k in
  let adds =
    (* half the batches ship their additions as one binary LOAD block *)
    if k mod 4 >= 2 then [ load_frame add.g_facts ] else stage_frames add.g_facts
  in
  let frames = adds @ stage_frames ~deletions:true del.g_facts @ [ commit_frame ] in
  (Batch frames, add, del)

let serve_churn seed =
  let st = rng seed 2 in
  let base =
    Array.init churn_base_groups (fun i ->
        group st ~prefix:(Fmt.str "g%d" i) ~recursive:(Random.State.int st 3 > 0))
  in
  let rounds conn r =
    let st = rng seed (3000 + (conn * 100_000) + (r mod 100_000)) in
    let batches =
      List.init churn_batches_per_round (fun i ->
          churn_batch seed conn ((r * churn_batches_per_round) + i))
    in
    let ops = List.map (fun (op, _, _) -> op) batches in
    (* checking reads: the group this round added last (present) and the
       one it deleted last (gone) *)
    let _, added, deleted = List.nth batches (churn_batches_per_round - 1) in
    ops
    @ [ Read (point_read st added);
        Read (cq_read st added);
        Read { (point_read st deleted) with expect = Some (Group (deleted, false)) } ]
  in
  { base; rounds }

(* The live EDB after [n] batches of each connection: the base groups
   plus each connection's window of churn groups. *)
let churn_live_groups seed batches_per_conn =
  List.concat
    (List.mapi
       (fun c n -> List.init churn_window (fun i -> churn_group seed c (n + i)))
       batches_per_conn)

let churn_initial_groups seed = churn_live_groups seed [ 0; 0 ]

(* ------------------------------------------------------------------ *)
(* serve-demand: many recursive layers, few queried                    *)

let demand_layers = 16
let demand_queried = [ 0; 1; 2 ]
let demand_chains = 40
let demand_chain_len = 30
let demand_toggle_layers = (1, 9)  (* one queried, one unqueried *)

let demand_program_text =
  String.concat ""
    (List.init demand_layers (fun i ->
         Fmt.str "e%d(X, Y) -> r%d(X, Y).\nr%d(X, Y), e%d(Y, Z) -> r%d(X, Z).\n" i i i i i))

(* Node names are a seeded permutation, so the seed decides which
   constant sits where on which chain. *)
type demand_workload = {
  node : int -> int -> int -> string;  (** layer, chain, position *)
  edges : Atom.t list;
  d_rounds : int -> int -> op list;
}

let demand_ops_per_round = 200

let serve_demand seed =
  let st = rng seed 3 in
  let per_layer = demand_chains * demand_chain_len in
  let perm =
    Array.init demand_layers (fun _ ->
        let a = Array.init per_layer Fun.id in
        for i = per_layer - 1 downto 1 do
          let j = Random.State.int st (i + 1) in
          let t = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- t
        done;
        a)
  in
  let node l c k = Fmt.str "n%d_%d" l perm.(l).((c * demand_chain_len) + k) in
  let tail l = Fmt.str "x%d" l in
  let edges =
    List.concat
      (List.init demand_layers (fun l ->
           List.concat
             (List.init demand_chains (fun c ->
                  List.init (demand_chain_len - 1) (fun k ->
                      atom (Fmt.str "e%d" l) [ node l c k; node l c (k + 1) ])))))
  in
  (* the toggled edges extend chain 0 of each toggle layer by one node *)
  let toggle_edges =
    let l1, l2 = demand_toggle_layers in
    List.map
      (fun l -> atom (Fmt.str "e%d" l) [ node l 0 (demand_chain_len - 1); tail l ])
      [ l1; l2 ]
  in
  let seq l c toggled =
    List.init demand_chain_len (fun k -> node l c k)
    @ if toggled && c = 0 && l = fst demand_toggle_layers then [ tail l ] else []
  in
  let drop n l = List.filteri (fun i _ -> i >= n) l in
  (* The hot set spreads evenly over the queried layers and along the
     chains, so how much of it a commit invalidates and what it costs to
     re-evaluate do not depend on the seed; the seed picks the chains,
     except that entry 1 (layer 1, position 0) always sits on the chain
     the toggle extends, so every round reads answers each commit
     changes. *)
  let hot =
    Array.init 32 (fun i ->
        let c = Random.State.int st demand_chains in
        (List.nth demand_queried (i mod List.length demand_queried),
         (if i = 1 then 0 else c), i * demand_chain_len / 32))
  in
  let round_count = 64 in
  let rounds =
    Array.init round_count (fun r ->
        let st = rng seed (7000 + r) in
        let reads =
          List.init demand_ops_per_round (fun i ->
              let l, c, k =
                if Random.State.int st 100 < 90 then hot.(Random.State.int st (Array.length hot))
                else
                  (pick st demand_queried, Random.State.int st demand_chains,
                   Random.State.int st demand_chain_len)
              in
              let n = node l c k in
              if i mod 7 = 0 then
                Read
                  (read_frame Cq (Fmt.str "?? r%d(%s, Y), e%d(Y, Z) -> q(Z)." l n l)
                     (Closed (fun tg -> List.map (Fmt.str "(%s)") (drop (k + 2) (seq l c tg)))))
              else
                Read
                  (read_frame Point (Fmt.str "? r%d(%s, ?Y)" l n)
                     (Closed
                        (fun tg ->
                          List.map (fun y -> Fmt.str "(%s, %s)" n y) (drop (k + 1) (seq l c tg))))))
        in
        reads @ [ Batch (stage_frames ~deletions:(r mod 2 = 1) toggle_edges @ [ commit_frame ]) ])
  in
  { node; edges; d_rounds = (fun _ r -> rounds.(r mod round_count)) }

(* ------------------------------------------------------------------ *)
(* pipeline: the CLI corpus                                            *)

type cli =
  | Translate of { name : string; file : string; target : string }
  | Analyze of { name : string; file : string; cyclic : bool }
  | Answer of { name : string; file : string; db : string; query : string; budget : int }

(* Theories [translate] accepts, one per language of Figure 1 (the two
   weakly guarded languages through --target weakly-guarded). *)
let translate_corpus =
  [
    ("datalog", "e(X, Y) -> tc(X, Y).\ntc(X, Y), e(Y, Z) -> tc(X, Z).\n", "datalog");
    ( "guarded",
      {|@e1 a(X) -> exists Y. r(X, Y).
@e2 r(X, Y) -> s(Y, Y).
@e3 s(X, Y) -> exists Z. t(X, Y, Z).
@e4 t(X, X, Y) -> b(X).
@e5 c(X), r(X, Y), b(Y) -> d(X).
|},
      "datalog" );
    ( "nearly-guarded",
      {|person(X) -> exists Y. parent(X, Y).
parent(X, Y), tag0(X) -> tagged0(Y).
tagged0(Y), parent(Y, Z) -> tagged1(Z).
tag0(X), tag1(Y) -> pair(X, Y).
pair(X, Y), person(X) -> q(Y).
|},
      "datalog" );
    ( "frontier-guarded",
      {|publication(X) -> exists K1, K2. keywords(X, K1, K2).
keywords(X, K1, K2) -> hasTopic(X, K1).
hasTopic(X0, Z), hasTopic(X1, Z) -> shared(Z).
shared(Z), hasTopic(X0, Z), hasAuthor(X0, A) -> q(A).
|},
      "datalog" );
    ("nearly-frontier-guarded", pub_theory_text, "datalog");
    ( "weakly-frontier-guarded",
      {|@w1 item(X) -> exists Y. box(X, Y).
@w2 box(X, Y), box(X2, Y2), label(S) -> marked(Y, S).
@w3 marked(Y, S), box(X, Y) -> out(X, S).
@w4 out(X, S) -> tagged(S).
|},
      "weakly-guarded" );
    ( "weakly-guarded",
      {|@w1 node(X) -> gen(X).
@w2 gen(X) -> exists Y. next(X, Y).
@w3 next(X, Y) -> gen(Y).
@w4 next(X, Y), anchor(Z) -> out(Y, Z).
|},
      "weakly-guarded" );
  ]

let zoo_len = 40
let zoo_swaps = 3

(* Paper's running example (Example 1), whose translation exceeds the
   [answer_budget] and is discarded before the chase fallback answers. *)
let publications_text =
  {|@s1 publication(X) -> exists K1, K2. keywords(X, K1, K2).
@s2 keywords(X, K1, K2) -> hasTopic(X, K1).
@s3 hasTopic(X, Z), hasAuthor(X, U), hasAuthor(Y, U), hasTopic(Y, Z2),
    scientific(Z2), citedIn(Y, X) -> scientific(Z).
@s4 hasAuthor(X, Y), hasTopic(X, Z), scientific(Z) -> q(Y).
|}

let answer_budget = 10_000

(* The running example's database scaled to a seeded citation chain:
   each publication shares an author with the next one. *)
let publications_db st n =
  let facts = ref [] in
  let add rel args = facts := atom rel args :: !facts in
  for i = 1 to n do
    add "publication" [ Fmt.str "p%d" i ];
    add "hasAuthor" [ Fmt.str "p%d" i; Fmt.str "auth%d" (Random.State.int st n) ];
    if i < n then begin
      add "citedIn" [ Fmt.str "p%d" i; Fmt.str "p%d" (i + 1) ];
      add "hasAuthor" [ Fmt.str "p%d" (i + 1); Fmt.str "auth%d" (Random.State.int st n) ]
    end
  done;
  add "hasTopic" [ Fmt.str "p%d" n; "seed" ];
  add "scientific" [ "seed" ];
  List.rev !facts

type pipeline = { files : (string * string) list; commands : cli list }

let pipeline seed =
  let st = rng seed 4 in
  let translate =
    List.map
      (fun (name, text, target) ->
        (("translate-" ^ name ^ ".rules", text), Translate { name; file = "translate-" ^ name ^ ".rules"; target }))
      translate_corpus
  in
  (* two chains that drain into a sink, one that closes its loop *)
  let zoo =
    List.mapi
      (fun i cyclic ->
        let swaps = List.init zoo_swaps (fun _ -> Random.State.int st zoo_len) in
        let name = Fmt.str "zoo%d-%s" i (if cyclic then "cyclic" else "acyclic") in
        let file = name ^ ".rules" in
        ( (file, rules_text (Guarded_gen.Generator.zoo_chain ~swaps ~len:zoo_len ~cyclic ())),
          Analyze { name; file; cyclic } ))
      [ false; false; true ]
  in
  let groups = List.init 40 (fun i -> group st ~prefix:(Fmt.str "g%d" i) ~recursive:(i mod 2 = 0)) in
  let answers =
    [
      ( [ ("publications.rules", publications_text);
          ("publications.db", facts_text (publications_db st 12)) ],
        Answer
          { name = "publications"; file = "publications.rules"; db = "publications.db";
            query = "q"; budget = answer_budget } );
      ( [ ("groups.rules", pub_theory_text);
          ("groups.db", facts_text (List.concat_map (fun g -> g.g_facts) groups)) ],
        Answer
          { name = "groups"; file = "groups.rules"; db = "groups.db"; query = "q";
            budget = 50_000 } );
    ]
  in
  {
    files = List.map fst translate @ List.map fst zoo @ List.concat_map fst answers;
    commands = List.map snd translate @ List.map snd zoo @ List.map snd answers;
  }

(* ------------------------------------------------------------------ *)
(* Files handed to the program                                         *)

let write_file dir name contents =
  let oc = open_out_bin (Filename.concat dir name) in
  output_string oc contents;
  close_out oc

let pub_db_facts (w : pub_workload) extra =
  List.concat_map (fun g -> g.g_facts) (Array.to_list w.base @ extra)

(* One line of [corpus.jsonl], the command list [run.py] runs. *)
let corpus_line = function
  | Translate { name; file; target } ->
    Fmt.str {|{"cmd": "translate", "name": "%s", "file": "%s", "target": "%s"}|} name file target
    ^ "\n"
  | Analyze { name; file; cyclic } ->
    Fmt.str {|{"cmd": "analyze", "name": "%s", "file": "%s", "cyclic": %b}|} name file cyclic
    ^ "\n"
  | Answer { name; file; db; query; budget } ->
    Fmt.str {|{"cmd": "answer", "name": "%s", "file": "%s", "db": "%s", "query": "%s", "budget": %d}|}
      name file db query budget
    ^ "\n"

(* Writes every input file of [workload] into [dir]; returns their
   names. *)
let write ~workload ~seed dir =
  let files =
    match workload with
    | "serve-read" ->
      let w, _ = serve_read seed in
      [ ("theory.rules", pub_theory_text); ("db.db", facts_text (pub_db_facts w [])) ]
    | "serve-churn" ->
      let w = serve_churn seed in
      [ ("theory.rules", pub_theory_text);
        ("db.db", facts_text (pub_db_facts w (churn_initial_groups seed))) ]
    | "serve-demand" ->
      let w = serve_demand seed in
      [ ("theory.rules", demand_program_text); ("db.db", facts_text w.edges) ]
    | "pipeline" ->
      let p = pipeline seed in
      p.files @ [ ("corpus.jsonl", String.concat "" (List.map corpus_line p.commands)) ]
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  List.iter (fun (name, contents) -> write_file dir name contents) files;
  List.map fst files
