(* The benchmark's harness: input generation, the closed-loop client
   with its answer checks, the CLI-output checks, the traced per-layer
   run and the harness self-test. [perfbench/run.py] drives it; see
   [perfbench/README.md].

     pb gen      --workload W --seed N --dir D
     pb client   --workload W --seed N --socket S --seconds T
     pb follower --primary S --follower S'
     pb pipeline-check --seed N --dir D
     pb trace    --seed N --seconds T --out FILE
     pb selftest *)

let args = Array.to_list Sys.argv

let flag name =
  let rec go = function
    | k :: v :: _ when k = name -> v
    | _ :: rest -> go rest
    | [] -> failwith ("missing " ^ name)
  in
  go args

let int_flag name = int_of_string (flag name)
let float_flag name = float_of_string (flag name)

(* ------------------------------------------------------------------ *)
(* JSON output                                                         *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let json_float f = Printf.sprintf "%.6f" f
let json_int = string_of_int

(* ------------------------------------------------------------------ *)
(* Latency summaries                                                   *)

let quantile sorted q =
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

(* Completions per second: the median over the run's whole one-second
   windows, so a slow stretch shorter than half the run does not move
   it. A window's rate is its completions after the first over the time
   from its first to its last, a measured (not whole) number. *)
let rate ~elapsed done_at =
  let windows = max 1 (int_of_float elapsed) in
  let lo = Array.make windows infinity and hi = Array.make windows neg_infinity in
  let counts = Array.make windows 0 in
  List.iter
    (fun t ->
      let w = int_of_float t in
      if w < windows then begin
        counts.(w) <- counts.(w) + 1;
        lo.(w) <- Float.min lo.(w) t;
        hi.(w) <- Float.max hi.(w) t
      end)
    done_at;
  let rates =
    List.filter_map
      (fun w ->
        if counts.(w) >= 2 && hi.(w) > lo.(w) then
          Some (float_of_int (counts.(w) - 1) /. (hi.(w) -. lo.(w)))
        else None)
      (List.init windows Fun.id)
  in
  match List.sort Float.compare rates with
  | [] -> float_of_int (List.length done_at) /. elapsed
  | l -> List.nth l (List.length l / 2)

(* Median always; a percentile only when at least ten samples lie
   beyond it. *)
let summary ~elapsed samples done_at =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  let us q = json_float (quantile a q *. 1e6) in
  let total = Array.fold_left ( +. ) 0. a in
  [ ("n", json_int n); ("total_s", json_float total);
    ("rate_per_s", json_float (rate ~elapsed done_at)) ]
  @ (if n > 0 then [ ("p50_us", us 0.5) ] else [])
  @ (if n >= 200 then [ ("p95_us", us 0.95) ] else [])
  @ if n >= 1000 then [ ("p99_us", us 0.99) ] else []

(* ------------------------------------------------------------------ *)
(* client: closed-loop load, then the answer checks                    *)

let client () =
  let workload = flag "--workload" and seed = int_flag "--seed" in
  let socket = flag "--socket" and seconds = float_flag "--seconds" in
  let theory = Gen.pub_theory in
  let result, after =
    match workload with
    | "serve-read" ->
      let w, toggle = Gen.serve_read seed in
      let base = Gen.pub_db_facts w [] in
      (* the two states the toggle commits alternate between *)
      let states =
        lazy
          [ Refs.reference (Lazy.force theory) base;
            Refs.reference (Lazy.force theory) (base @ toggle.Gen.g_facts) ]
      in
      (* one connection: with two sharing the server, their requests fall
         into step or out of step for a whole run, and the median read
         moved by a third between runs *)
      let r = Load.run ~socket ~conns:1 ~seconds w.Gen.rounds in
      ( r,
        fun () ->
          Checks.reads ~exact:true ~theory:(Lazy.force theory) ~whole:states r.Load.reads;
          let toggled = r.Load.batches_per_conn.(0) mod 2 = 1 in
          Checks.scans ~request:(Load.request socket) ~label:"final state" Gen.pub_relations
            (List.nth (Lazy.force states) (if toggled then 1 else 0)) )
    | "serve-churn" ->
      let w = Gen.serve_churn seed in
      let r = Load.run ~socket ~conns:2 ~seconds w.Gen.rounds in
      ( r,
        fun () ->
          Checks.reads ~theory:(Lazy.force theory) ~whole:(lazy []) r.Load.reads;
          let live = Gen.churn_live_groups seed (Array.to_list r.Load.batches_per_conn) in
          let final = Gen.pub_db_facts w live in
          Checks.scans ~request:(Load.request socket) ~label:"final state" Gen.pub_relations
            (Refs.reference (Lazy.force theory) final) )
    | "serve-demand" ->
      let w = Gen.serve_demand seed in
      (* one connection: with two, a cold subgoal on one delays the other's
         cache hits (see README), and the median read flips between the
         two modes from run to run *)
      let r = Load.run ~socket ~conns:1 ~seconds w.Gen.d_rounds in
      ( r,
        fun () ->
          Checks.reads ~exact:true ~theory:(Lazy.force theory) ~whole:(lazy []) r.Load.reads;
          (* final state: the first round's reads again, now with the
             toggle state known exactly *)
          let toggled = r.Load.batches_per_conn.(0) mod 2 = 1 in
          List.iter
            (function
              | Gen.Read { Gen.text; expect = Some (Gen.Closed f); _ } ->
                if Refs.answer_lines (Load.request socket text) <> Some (Refs.canon (f toggled))
                then Checks.fail "final state: %s disagrees with the closed form" text
              | _ -> ())
            (w.Gen.d_rounds 0 0) )
    | w -> failwith ("not a serving workload: " ^ w)
  in
  after ();
  let verbs =
    Hashtbl.fold
      (fun name (v : Load.verb) acc ->
        ( name,
          json_obj
            ([ ("attempted", json_int v.Load.attempted); ("failed", json_int v.Load.failed) ]
            @ summary ~elapsed:result.Load.elapsed v.Load.samples v.Load.done_at) )
        :: acc)
      result.Load.verbs []
  in
  let reads, reads_done =
    Hashtbl.fold
      (fun name (v : Load.verb) (s, d) ->
        if List.mem name [ "query"; "scan"; "cq" ] then (v.Load.samples @ s, v.Load.done_at @ d)
        else (s, d))
      result.Load.verbs ([], [])
  in
  List.iter (fun m -> Fmt.epr "CHECK FAILED: %s@." m) (List.rev !Checks.failures);
  print_endline
    (json_obj
       [
         ("verbs", json_obj (List.sort compare verbs));
         ("reads", json_obj (summary ~elapsed:result.Load.elapsed reads reads_done));
         ("load_facts", json_int result.Load.load_facts);
         ("load_s", json_float result.Load.load_s);
         ("batches", "[" ^ String.concat ", " (Array.to_list (Array.map json_int result.Load.batches_per_conn)) ^ "]");
         ("elapsed_s", json_float result.Load.elapsed);
         ("checked", json_int (Hashtbl.length result.Load.reads));
         ("correct", if !Checks.failures = [] then "true" else "false");
       ])

(* ------------------------------------------------------------------ *)
(* follower: after catch-up its answers equal the primary's            *)

let follower () =
  let primary = flag "--primary" and follower = flag "--follower" in
  Checks.same_answers ~label:"follower" Gen.pub_relations (Load.request primary)
    (Load.request follower);
  List.iter (fun m -> Fmt.epr "CHECK FAILED: %s@." m) (List.rev !Checks.failures);
  print_endline (json_obj [ ("correct", if !Checks.failures = [] then "true" else "false") ])

let () =
  match args with
  | _ :: "gen" :: _ ->
    List.iter print_endline (Gen.write ~workload:(flag "--workload") ~seed:(int_flag "--seed") (flag "--dir"))
  | _ :: "client" :: _ -> client ()
  | _ :: "follower" :: _ -> follower ()
  | _ :: "pipeline-check" :: _ -> Pipeline_check.main ~seed:(int_flag "--seed") ~dir:(flag "--dir")
  | _ :: "trace" :: _ ->
    Trace.main ~seed:(int_flag "--seed") ~seconds:(float_flag "--seconds") ~out:(flag "--out")
  | _ :: "selftest" :: _ -> Selftest.main ()
  | _ ->
    prerr_endline "usage: pb (gen|client|follower|pipeline-check|trace|selftest) ...";
    exit 2
