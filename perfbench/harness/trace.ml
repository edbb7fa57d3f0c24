(* The traced run: replays every workload's seeded inputs through the
   layers' public functions in this process, records a span (name,
   start, end, parent, request id, optional count) around each call, and
   derives the per-layer metrics from the spans alone. Nothing inside
   the program is instrumented; the spans sit at the call boundaries.
   The spans are kept in memory and written out as JSON lines at the
   end. End-to-end metrics never come from this run. *)

open Guarded_core
module Incr = Guarded_incr.Incr
module Demand = Guarded_incr.Demand
module Delta = Guarded_incr.Delta
module State = Guarded_server.State
module Wire = Guarded_server.Wire

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;
  req : int;  (** replayed request id, or a corpus pass; -1 when none *)
  value : float;  (** a count or size measured inside the span, or nan *)
}

let spans = ref []
let next_id = ref 0
let current = ref (-1)
let lock = Mutex.create ()
let now = Clock.now

(* [span_v name f]: [f] returns its result and the count to attach. A
   call that raises is recorded too, without a count. *)
let span_v ?(req = -1) name f =
  let id = Mutex.protect lock (fun () -> incr next_id; !next_id) in
  let parent = !current in
  current := id;
  let t0 = now () in
  let finish value =
    let t1 = now () in
    current := parent;
    Mutex.protect lock (fun () ->
        spans := { id; name; start = t0; stop = t1; parent; req; value } :: !spans)
  in
  match f () with
  | r, value ->
    finish value;
    r
  | exception e ->
    finish nan;
    raise e

let span ?req name f = span_v ?req name (fun () -> (f (), nan))

(* Runs [f i] for i = 0, 1, ... until [until], at least [min] times. *)
let repeat ?(min = 1) until f =
  let i = ref 0 in
  while !i < min || now () < until do
    f !i;
    incr i
  done

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)

let fact_rows facts = List.map (fun a -> (Atom.rel a, List.map Term.to_string (Atom.args a))) facts

let churn_delta seed k =
  let add = Gen.churn_group seed 0 (Gen.churn_window + k) and del = Gen.churn_group seed 0 k in
  Delta.of_lists ~additions:add.Gen.g_facts ~deletions:del.Gen.g_facts

let reads_of ops =
  List.filter_map (function Gen.Read f -> Some f | Gen.Batch _ -> None) ops

(* The materialized backend's answer to a read, the way the server
   computes it, from public functions. *)
let backend_answer m (req : Wire.request) =
  match req with
  | Wire.Query { rel; pattern = None } -> span "incr.answers" (fun () -> Incr.answers m ~query:rel)
  | Wire.Query { rel; pattern = Some pat } ->
    span "core.db_probe" (fun () ->
        let p = Atom.make rel pat and out = ref [] in
        Database.iter_candidates (Incr.db m) p (fun fact ->
            match Subst.match_atom Subst.empty p fact with
            | Some _ when List.for_all Term.is_const (Atom.args fact) -> out := Atom.args fact :: !out
            | _ -> ());
        List.sort_uniq (List.compare Term.compare) !out)
  | Wire.Cq (ucq, _) ->
    List.sort_uniq (List.compare Term.compare)
      (List.concat_map
         (fun (cq : Guarded_cq.Cq.t) ->
           span "incr.cq_answers" (fun () ->
               Incr.cq_answers m ~body:cq.Guarded_cq.Cq.body ~answer_vars:cq.Guarded_cq.Cq.answer_vars))
         ucq.Guarded_cq.Ucq.disjuncts)
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Sections                                                            *)

let section_core ~seed ~until =
  let w, _ = Gen.serve_read seed in
  let text = Gen.facts_text (Gen.pub_db_facts w []) in
  repeat ~min:3 until (fun _ ->
      ignore
        (span_v "core.parse_facts" (fun () ->
             let db = Parser.database_of_string text in
             (db, float_of_int (Database.cardinal db)))));
  let db = Parser.database_of_string text in
  repeat ~min:20 until (fun k ->
      let g = Gen.churn_group seed 1 k in
      let rows = fact_rows g.Gen.g_facts in
      (* fresh constants each time, as churn interns them *)
      let facts =
        span_v "core.atom_make" (fun () ->
            let out =
              List.map
                (fun (rel, args) ->
                  Atom.make rel (List.map (fun c -> Term.Const (Fmt.str "%s_x%d" c k)) args))
                rows
            in
            (out, float_of_int (List.length rows)))
      in
      let n = float_of_int (List.length facts) in
      span_v "core.db_add" (fun () -> (List.iter (fun a -> ignore (Database.add db a)) facts, n));
      span_v "core.db_remove" (fun () ->
          (List.iter (fun a -> ignore (Database.remove db a)) facts, n));
      let b = Buffer.create 1024 in
      Codec.write_fact_block b facts;
      let block = Buffer.contents b in
      ignore
        (span_v "core.codec_decode" (fun () ->
             (Codec.read_fact_block (Codec.source_of_string block) (List.length facts), n))))

(* serve-read: materialize, then replay the read stream through parse,
   backend, print; then the same reads over a real in-process server. *)
let section_read ~seed ~until =
  let w, _ = Gen.serve_read seed in
  let theory = Lazy.force Gen.pub_theory in
  let program =
    span "translate.serving_program" (fun () ->
        (Guarded_translate.Pipeline.serving_program theory).Guarded_translate.Pipeline.served_program)
  in
  let db = Database.of_atoms (Gen.pub_db_facts w []) in
  let m = span "incr.materialize" (fun () -> Incr.materialize program db) in
  let reads = List.concat_map (fun r -> reads_of (w.Gen.rounds 0 r)) (List.init 8 Fun.id) in
  let req_id = ref 0 in
  let deadline = until -. ((until -. now ()) /. 3.) in
  repeat deadline (fun _ ->
      List.iter
        (fun (f : Gen.frame) ->
          incr req_id;
          let req = !req_id in
          span ~req "request" (fun () ->
              match span ~req "wire.parse_request" (fun () -> Wire.parse_request f.Gen.payload) with
              | Error _ -> ()
              | Ok r ->
                (match r with
                | Wire.Cq (ucq, _) ->
                  List.iter
                    (fun (cq : Guarded_cq.Cq.t) ->
                      let body = cq.Guarded_cq.Cq.body in
                      let plan = span ~req "datalog.plan" (fun () -> Guarded_datalog.Planner.plan body) in
                      match plan with
                      | Guarded_datalog.Planner.Wcoj order ->
                        ignore
                          (span ~req "datalog.wcoj" (fun () ->
                               Guarded_datalog.Wcoj.all ~order body (Incr.db m)))
                      | Guarded_datalog.Planner.Binary -> ())
                    ucq.Guarded_cq.Ucq.disjuncts
                | _ -> ());
                let tuples = span ~req "state.backend_call" (fun () -> backend_answer m r) in
                ignore
                  (span_v ~req "wire.print_response" (fun () ->
                       let s = Wire.print_response (Wire.Answers tuples) in
                       (s, float_of_int (String.length s))))))
        reads);
  (* the traced round trip: one connection, closed loop, point reads *)
  let state = State.of_materialization m in
  let path = "trace.sock" in
  let srv = Guarded_server.Server.listen state (Guarded_server.Server.Unix_socket path) in
  let fd = Load.connect path in
  let points = List.filter (fun (f : Gen.frame) -> f.Gen.kind = Gen.Point) reads in
  repeat until (fun _ ->
      List.iter
        (fun (f : Gen.frame) ->
          ignore (span "server.round_trip" (fun () -> Load.exchange fd f.Gen.payload)))
        points);
  Unix.close fd;
  (* in-process replica bootstrap against this server *)
  (match
     span "repl.replica_start" (fun () ->
         match
           Guarded_repl.Replica.start ~primary:(Guarded_server.Server.address srv)
             (Guarded_server.Server.Unix_socket "trace-replica.sock")
         with
         | Error e -> Error e
         | Ok r ->
           while Guarded_repl.Replica.lag r > 0 do
             Thread.delay 0.001
           done;
           Ok r)
   with
  | Ok r -> Guarded_repl.Replica.stop r
  | Error e -> failwith ("replica start: " ^ e));
  Guarded_server.Server.stop srv;
  State.shutdown state;
  (* the served scans against the chase of the source theory *)
  let reference = Refs.reference theory (Gen.pub_db_facts w []) in
  List.for_all
    (fun rel ->
      Refs.canon (List.map Refs.tuple_text (Incr.answers m ~query:rel))
      = Refs.expected reference ("? " ^ rel))
    Gen.pub_relations

(* serve-churn: the commit path, layer by layer. *)
let section_churn ~seed ~until =
  let w = Gen.serve_churn seed in
  let program =
    (Guarded_translate.Pipeline.serving_program (Lazy.force Gen.pub_theory))
      .Guarded_translate.Pipeline.served_program
  in
  let edb () = Database.of_atoms (Gen.pub_db_facts w (Gen.churn_initial_groups seed)) in
  let m = span "incr.materialize" (fun () -> Incr.materialize program (edb ())) in
  let journal = Guarded_server.Journal.create () in
  let batches = ref 0 in
  Gc.compact ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let deadline = until -. ((until -. now ()) /. 2.) in
  repeat ~min:8 deadline (fun k ->
      let d = churn_delta seed k in
      let name = if k mod 2 = 1 then "incr.apply_dred" else "incr.apply_counting" in
      let res = span name (fun () -> Incr.apply m d) in
      span_v "incr.facts_changed" (fun () ->
          ((), float_of_int (res.Incr.res_added + res.Incr.res_removed)));
      let before = Guarded_server.Journal.bytes journal in
      span_v "journal.append" (fun () ->
          Guarded_server.Journal.append journal ~epoch:(k + 1) d;
          ((), float_of_int (Guarded_server.Journal.bytes journal - before)));
      incr batches);
  Gc.compact ();
  let live1 = (Gc.stat ()).Gc.live_words in
  span_v "incr.heap_per_commit" (fun () ->
      ((), float_of_int ((live1 - live0) * (Sys.word_size / 8)) /. 1024. /. float_of_int !batches));
  let dump = Incr.dump m in
  let image =
    span_v "snapshot.encode" (fun () ->
        let s = Guarded_server.Snapshot.encode program dump in
        (s, float_of_int (String.length s)))
  in
  ignore (span "snapshot.decode" (fun () -> Guarded_server.Snapshot.decode image));
  (* State.commit against Incr.apply of the same batch on a twin: the
     difference is the queue, the lock and the epoch bookkeeping; a
     reader thread meanwhile measures how long its lock wait is *)
  let state = State.create program (edb ()) in
  let twin = Incr.materialize program (edb ()) in
  let stop = Atomic.make false in
  let reader =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          let t0 = now () in
          State.with_backend state (fun _ ->
              span_v "state.read_wait" (fun () -> ((), (now () -. t0) *. 1e6)));
          Thread.yield ()
        done)
      ()
  in
  repeat ~min:8 until (fun k ->
      let d = churn_delta seed k in
      let c = span "state.commit" (fun () -> State.commit state d) in
      let t0 = now () in
      ignore (Incr.apply twin d);
      let apply = now () -. t0 in
      span_v "state.commit_apply" (fun () -> ((), apply));
      match c with Ok _ -> () | Error e -> failwith ("commit: " ^ e));
  Atomic.set stop true;
  Thread.join reader;
  State.shutdown state;
  true

(* serve-demand: the cache, cold against hot, and the magic rewrite. *)
let section_demand ~seed ~until =
  let w = Gen.serve_demand seed in
  let program = Parser.theory_of_string Gen.demand_program_text in
  let d = Demand.create program (Database.of_atoms w.Gen.edges) in
  let toggles =
    match w.Gen.d_rounds 0 0 |> List.rev with
    | Gen.Batch frames :: _ -> frames
    | _ -> []
  in
  let toggle_facts =
    List.filter_map
      (fun (f : Gen.frame) ->
        match Wire.parse_request f.Gen.payload with Ok (Wire.Add a) -> Some a | _ -> None)
      toggles
  in
  let commits = ref 0 in
  let apply k =
    let delta =
      if k mod 2 = 0 then Delta.of_lists ~additions:toggle_facts ~deletions:[]
      else Delta.of_lists ~additions:[] ~deletions:toggle_facts
    in
    ignore (span "demand.apply" (fun () -> Demand.apply d delta));
    incr commits
  in
  let seen = Hashtbl.create 1024 in
  let ok = ref true in
  let deadline = until -. ((until -. now ()) /. 3.) in
  (* the workload's own read stream: its mix sets the hit ratio *)
  repeat deadline (fun r ->
      List.iter
        (function
          | Gen.Read f -> (
            match Wire.parse_request f.Gen.payload with
            | Ok (Wire.Query { rel; pattern = Some pattern }) ->
              if not (Hashtbl.mem seen f.Gen.payload) then begin
                Hashtbl.replace seen f.Gen.payload ();
                ignore
                  (span "datalog.magic_transform" (fun () ->
                       Guarded_datalog.Magic.transform program
                         { Guarded_datalog.Magic.q_rel = rel; q_pattern = pattern }))
              end;
              let tuples = span "demand.pattern_answers" (fun () -> Demand.pattern_answers d ~rel ~pattern) in
              (match f.Gen.expect with
              | Some (Gen.Closed c) ->
                let got = Refs.canon (List.map Refs.tuple_text tuples) in
                if got <> Refs.canon (c (!commits mod 2 = 1)) then ok := false
              | _ -> ())
            | Ok (Wire.Cq (ucq, _)) ->
              List.iter
                (fun (cq : Guarded_cq.Cq.t) ->
                  ignore
                    (span "demand.cq_answers" (fun () ->
                         Demand.cq_answers d ~body:cq.Guarded_cq.Cq.body
                           ~answer_vars:cq.Guarded_cq.Cq.answer_vars)))
                ucq.Guarded_cq.Ucq.disjuncts
            | _ -> ())
          | Gen.Batch _ -> apply !commits)
        (w.Gen.d_rounds 0 r));
  let s = Guarded_incr.Demand.cache_stats d in
  let open Guarded_incr.Subgoal_cache in
  span_v "demand.cache_hit_ratio" (fun () ->
      ((), float_of_int s.sc_hits /. float_of_int (max 1 (s.sc_hits + s.sc_misses))));
  span_v "demand.cache_entries" (fun () -> ((), float_of_int s.sc_entries));
  span_v "demand.evictions_per_commit" (fun () ->
      ((), float_of_int s.sc_evictions /. float_of_int (max 1 !commits)));
  (* cold (first call after an invalidating commit) against hot *)
  let l1 = fst Gen.demand_toggle_layers in
  repeat ~min:10 until (fun i ->
      apply !commits;
      let rel = Fmt.str "r%d" l1 in
      let pattern = [ Term.Const (w.Gen.node l1 (i mod Gen.demand_chains) 0); Term.Var "Y" ] in
      ignore (span "demand.answers_cold" (fun () -> Demand.pattern_answers d ~rel ~pattern));
      ignore (span "demand.answers_hot" (fun () -> Demand.pattern_answers d ~rel ~pattern)));
  !ok

(* pipeline: the translation, chase and analysis layers over the CLI
   corpus; [req] numbers the corpus pass. *)
let section_pipeline ~seed ~until =
  let p = Gen.pipeline seed in
  let theory file = Parser.theory_of_string (List.assoc file p.Gen.files) in
  let open Guarded_translate in
  repeat until (fun pass ->
      let req = pass in
      List.iter
        (function
          | Gen.Translate { file; target = "datalog"; _ } ->
            let sigma = theory file in
            let tr = span ~req "translate.to_datalog" (fun () -> Pipeline.to_datalog sigma) in
            span_v ~req "translate.rules_out" (fun () ->
                ((), float_of_int (Theory.size tr.Pipeline.datalog)));
            let norm = Normalize.normalize sigma in
            (match Classify.classify norm with
            | Classify.Guarded -> ignore (span ~req "translate.saturate" (fun () -> Saturate.dat norm))
            | Classify.Nearly_guarded ->
              ignore (span ~req "translate.saturate" (fun () -> Saturate.dat_nearly_guarded norm))
            | Classify.Frontier_guarded ->
              let ng, _ = span ~req "translate.rewrite" (fun () -> Rewrite_fg.rew_frontier_guarded norm) in
              ignore (span ~req "translate.saturate" (fun () -> Saturate.dat_nearly_guarded ng))
            | Classify.Nearly_frontier_guarded ->
              let ng, _ =
                span ~req "translate.rewrite" (fun () -> Rewrite_fg.rew_nearly_frontier_guarded norm)
              in
              ignore (span ~req "translate.saturate" (fun () -> Saturate.dat_nearly_guarded ng))
            | _ -> ())
          | Gen.Translate _ -> ()
          | Gen.Analyze { file; _ } ->
            let sigma = theory file in
            span ~req "analysis.deciders" (fun () ->
                ignore (Guarded_analysis.Acyclic.weak sigma);
                ignore (Guarded_analysis.Acyclic.joint sigma);
                ignore (Guarded_analysis.Acyclic.super_weak sigma));
            ignore (span ~req "analysis.prover" (fun () -> Guarded_analysis.Prover.prove sigma))
          | Gen.Answer { file; db; budget; _ } ->
            let sigma = theory file in
            let facts = Parser.database_of_string (List.assoc db p.Gen.files) in
            let budget =
              { Pipeline.max_expansion_rules = budget; max_saturation_rules = budget;
                max_ground_rules = budget }
            in
            (* the translation [answer] computes first; when it exceeds
               its budget, all of its time is discarded *)
            let t0 = now () in
            (match span ~req "translate.answer_attempt" (fun () -> Pipeline.to_datalog ~budget sigma) with
            | tr ->
              ignore
                (span ~req "datalog.eval" (fun () ->
                     let d = Database.copy facts in
                     if Guarded_datalog.Seminaive.mentions_acdom tr.Pipeline.datalog then
                       Database.materialize_acdom d;
                     Guarded_datalog.Seminaive.eval tr.Pipeline.datalog d))
            | exception (Expansion.Budget_exceeded _ | Saturate.Budget_exceeded _) ->
              span_v ~req "translate.discarded" (fun () -> ((), now () -. t0)));
            let d = Database.copy facts in
            Database.materialize_acdom d;
            let r =
              span ~req "chase.answers" (fun () ->
                  Guarded_chase.Engine.run ~record_steps:false (Normalize.normalize sigma) d)
            in
            span_v ~req "chase.derivations" (fun () ->
                ((), float_of_int r.Guarded_chase.Engine.derivations)))
        p.Gen.commands);
  true

(* ------------------------------------------------------------------ *)
(* Metrics from spans                                                  *)

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  if Array.length a = 0 then nan else a.(Array.length a / 2)

let of_name n = List.filter (fun s -> s.name = n) !spans
let dur s = s.stop -. s.start
let med_dur n = median (List.map dur (of_name n))
let med_value n = median (List.map (fun s -> s.value) (of_name n))
let med_per n = median (List.map (fun s -> dur s /. s.value) (of_name n))
let med_rate n = median (List.map (fun s -> s.value /. dur s) (of_name n))
let mean_value n =
  let l = List.map (fun s -> s.value) (of_name n) in
  List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* Per corpus pass: the sum over the corpus, then the median pass. *)
let per_pass f n =
  let by = Hashtbl.create 8 in
  List.iter
    (fun s -> Hashtbl.replace by s.req (f s +. Option.value ~default:0. (Hashtbl.find_opt by s.req)))
    (of_name n);
  median (Hashtbl.fold (fun _ v acc -> v :: acc) by [])

let metrics () =
  let us x = x *. 1e6 and ms x = x *. 1e3 in
  let commit_wait =
    let c = List.map dur (of_name "state.commit") and a = List.map (fun s -> s.value) (of_name "state.commit_apply") in
    median (List.map2 ( -. ) c a)
  in
  let unaccounted =
    med_dur "server.round_trip"
    -. (med_dur "wire.parse_request" +. (mean_value "state.read_wait" /. 1e6)
       +. med_dur "state.backend_call" +. med_dur "wire.print_response")
  in
  [
    ("core.atom_make_ns", med_per "core.atom_make" *. 1e9, "ns");
    ("core.db_add_ns", med_per "core.db_add" *. 1e9, "ns");
    ("core.db_remove_ns", med_per "core.db_remove" *. 1e9, "ns");
    ("core.codec_decode_facts_per_s", med_rate "core.codec_decode", "fact/s");
    ("core.parse_facts_per_s", med_rate "core.parse_facts", "fact/s");
    ("wire.parse_request_us", us (med_dur "wire.parse_request"), "us");
    ("wire.print_response_us", us (med_dur "wire.print_response"), "us");
    ("wire.response_bytes", med_value "wire.print_response", "bytes");
    ("state.read_wait_us", mean_value "state.read_wait", "us");
    ("state.commit_ms", ms (med_dur "state.commit"), "ms");
    ("state.commit_wait_ms", ms commit_wait, "ms");
    ("journal.append_us", us (med_dur "journal.append"), "us");
    ("journal.bytes_per_commit", med_value "journal.append", "bytes");
    ("snapshot.encode_ms", ms (med_dur "snapshot.encode"), "ms");
    ("snapshot.decode_ms", ms (med_dur "snapshot.decode"), "ms");
    ("snapshot.bytes", med_value "snapshot.encode", "bytes");
    ("repl.replica_start_s", med_dur "repl.replica_start", "s");
    ("server.round_trip_us", us (med_dur "server.round_trip"), "us");
    ("server.unaccounted_us", us unaccounted, "us");
    ("incr.materialize_s", med_dur "incr.materialize", "s");
    ("incr.apply_counting_ms", ms (med_dur "incr.apply_counting"), "ms");
    ("incr.apply_dred_ms", ms (med_dur "incr.apply_dred"), "ms");
    ("incr.facts_changed", med_value "incr.facts_changed", "count");
    ("incr.answers_us", us (med_dur "incr.answers"), "us");
    ("incr.cq_answers_us", us (med_dur "incr.cq_answers"), "us");
    ("incr.heap_kb_per_commit", med_value "incr.heap_per_commit", "KB");
    ("demand.answers_cold_us", us (med_dur "demand.answers_cold"), "us");
    ("demand.answers_hot_us", us (med_dur "demand.answers_hot"), "us");
    ("demand.cache_hit_ratio", med_value "demand.cache_hit_ratio", "ratio");
    ("demand.cache_entries", med_value "demand.cache_entries", "count");
    ("demand.evictions_per_commit", med_value "demand.evictions_per_commit", "count");
    ("demand.apply_us", us (med_dur "demand.apply"), "us");
    ("datalog.magic_transform_us", us (med_dur "datalog.magic_transform"), "us");
    ("datalog.plan_us", us (med_dur "datalog.plan"), "us");
    ("datalog.wcoj_us", us (med_dur "datalog.wcoj"), "us");
    ("datalog.eval_s", per_pass dur "datalog.eval", "s");
    ("translate.to_datalog_s", per_pass dur "translate.to_datalog", "s");
    ("translate.rewrite_s", per_pass dur "translate.rewrite", "s");
    ("translate.saturate_s", per_pass dur "translate.saturate", "s");
    ("translate.rules_out", per_pass (fun s -> s.value) "translate.rules_out", "count");
    ("translate.discarded_s", per_pass (fun s -> s.value) "translate.discarded", "s");
    ("chase.answers_ms", ms (per_pass dur "chase.answers"), "ms");
    ("chase.derivations", per_pass (fun s -> s.value) "chase.derivations", "count");
    ("analysis.deciders_ms", ms (per_pass dur "analysis.deciders"), "ms");
    ("analysis.prover_ms", ms (per_pass dur "analysis.prover"), "ms");
  ]

let write_spans out =
  let oc = open_out out in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"name\": %S, \"start\": %.6f, \"end\": %.6f, \"parent\": %d, \"req\": %d%s}\n"
        s.id s.name s.start s.stop s.parent s.req
        (if Float.is_nan s.value then "" else Printf.sprintf ", \"value\": %.6f" s.value))
    (List.rev !spans);
  close_out oc

let main ~seed ~seconds ~out =
  let t0 = now () in
  let slice share = t0 +. (seconds *. share) in
  section_core ~seed ~until:(slice 0.1);
  let ok_read = section_read ~seed ~until:(slice 0.4) in
  let ok_churn = section_churn ~seed ~until:(slice 0.6) in
  let ok_demand = section_demand ~seed ~until:(slice 0.8) in
  let ok_pipeline = section_pipeline ~seed ~until:(slice 1.0) in
  write_spans out;
  let ms = metrics () in
  let bad = List.filter (fun (_, v, _) -> not (Float.is_finite v)) ms in
  List.iter (fun (n, _, _) -> Fmt.epr "no spans for %s@." n) bad;
  let correct = ok_read && ok_churn && ok_demand && ok_pipeline && bad = [] in
  print_endline
    (Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": 0, \"metrics\": {%s}}" correct
       (List.length !spans)
       (String.concat ", "
          (List.map
             (fun (n, v, u) ->
               Printf.sprintf "%S: [%.6g, %S]" n (if Float.is_finite v then v else 0.) u)
             ms)))
