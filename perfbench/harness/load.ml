(* The closed-loop load client: one process, a few connections, each
   sending its next frame only after the reply to the previous one.
   Frames go through the wire protocol's own framing functions. *)

module Wire = Guarded_server.Wire

type conn = {
  fd : Unix.file_descr;
  id : int;
  mutable round : int;
  mutable ops : Gen.op list;  (** the rest of the current round *)
  mutable frames : Gen.frame list;  (** the rest of the current op *)
  mutable op_start : float;
  mutable sent_at : float;
  mutable batches : int;  (** commit batches completed *)
  mutable op_load_facts : int;  (** facts the current batch ships in LOAD blocks *)
  mutable done_ : bool;
}

type verb = {
  mutable attempted : int;
  mutable failed : int;
  mutable samples : float list;  (** latencies of the successful ones *)
  mutable done_at : float list;  (** their completion times, from the start *)
}

type result = {
  verbs : (string, verb) Hashtbl.t;  (** per frame kind, plus "batch" *)
  reads : (string * string * bool, Gen.expect) Hashtbl.t;
      (** distinct (request, reply, whether the connection had completed an
          odd number of its own commit batches when it sent the request) *)
  batches_per_conn : int array;
  load_facts : int;  (** facts shipped in LOAD blocks of committed batches *)
  load_s : float;  (** time of those batches, first frame to COMMITTED *)
  elapsed : float;
}

let verb r name =
  match Hashtbl.find_opt r name with
  | Some v -> v
  | None ->
    let v = { attempted = 0; failed = 0; samples = []; done_at = [] } in
    Hashtbl.replace r name v;
    v

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

(* One request and its reply on an open connection. *)
let exchange fd payload =
  Wire.write_frame fd payload;
  match Wire.read_frame fd with Some reply -> reply | None -> failwith "connection closed"

(* A reply is a failure when it is an ERROR or not the reply its verb
   expects. *)
let reply_ok (f : Gen.frame) reply =
  let starts p = String.length reply >= String.length p && String.sub reply 0 (String.length p) = p in
  match f.Gen.kind with
  | Gen.Point | Gen.Scan | Gen.Cq -> starts "ANSWERS "
  | Gen.Stage -> reply = "OK"
  | Gen.Load -> starts "LOADED "
  | Gen.Commit -> starts "COMMITTED "

(* Runs [rounds conn r] on [conns] connections until [seconds] have
   passed, always finishing the round under way, so every run attempts
   whole rounds. A silent server ([timeout] seconds without a reply)
   fails the frames outstanding and ends the run. *)
let run ?(timeout = 20.) ~socket ~conns ~seconds (rounds : int -> int -> Gen.op list) =
  let verbs = Hashtbl.create 8 and reads = Hashtbl.create 4096 in
  let load_facts = ref 0 and load_s = ref 0. in
  let t0 = Clock.now () in
  let cs =
    Array.init conns (fun id ->
        { fd = connect socket; id; round = 0; ops = rounds id 0;
          frames = []; op_start = 0.; sent_at = 0.; batches = 0; op_load_facts = 0;
          done_ = false })
  in
  let rec send_next c =
    match c.frames with
    | f :: _ ->
      c.sent_at <- Clock.now ();
      Wire.write_frame c.fd f.Gen.payload
    | [] -> (
      match c.ops with
      | op :: rest ->
        c.ops <- rest;
        c.frames <- (match op with Gen.Read f -> [ f ] | Gen.Batch frames -> frames);
        c.op_load_facts <-
          List.fold_left
            (fun n (f : Gen.frame) ->
              if f.Gen.kind = Gen.Load then n + Scanf.sscanf f.Gen.text "LOAD %d" Fun.id else n)
            0 c.frames;
        c.op_start <- Clock.now ();
        send_next c
      | [] ->
        c.round <- c.round + 1;
        if Clock.now () -. t0 >= seconds then c.done_ <- true
        else begin
          c.ops <- rounds c.id c.round;
          send_next c
        end)
  in
  let on_reply c reply =
    let now = Clock.now () in
    match c.frames with
    | [] -> failwith "reply without a request"
    | f :: rest ->
      let v = verb verbs (Gen.kind_name f.Gen.kind) in
      v.attempted <- v.attempted + 1;
      if reply_ok f reply then begin
        v.samples <- (now -. c.sent_at) :: v.samples;
        v.done_at <- (now -. t0) :: v.done_at
      end
      else v.failed <- v.failed + 1;
      (match f.Gen.expect with
      | Some e -> Hashtbl.replace reads (f.Gen.text, reply, c.batches mod 2 = 1) e
      | None -> ());
      c.frames <- rest;
      if rest = [] && f.Gen.kind = Gen.Commit then begin
        let b = verb verbs "batch" in
        b.attempted <- b.attempted + 1;
        c.batches <- c.batches + 1;
        if reply_ok f reply then begin
          b.samples <- (now -. c.op_start) :: b.samples;
          b.done_at <- (now -. t0) :: b.done_at;
          if c.op_load_facts > 0 then begin
            load_facts := !load_facts + c.op_load_facts;
            load_s := !load_s +. (now -. c.op_start)
          end
        end
        else b.failed <- b.failed + 1
      end;
      send_next c
  in
  Array.iter send_next cs;
  let live () = List.filter (fun c -> not c.done_) (Array.to_list cs) in
  let rec loop () =
    match live () with
    | [] -> ()
    | active ->
      let readable, _, _ =
        try Unix.select (List.map (fun c -> c.fd) active) [] [] timeout
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      if readable = [] then
        (* silence: every outstanding frame fails, and the run ends *)
        List.iter
          (fun c ->
            let v = verb verbs "timeout" in
            v.attempted <- v.attempted + 1;
            v.failed <- v.failed + 1;
            c.done_ <- true)
          active
      else begin
        List.iter
          (fun c ->
            (* one request is outstanding, so a readable socket carries
               its whole reply *)
            if List.mem c.fd readable then
              match Wire.read_frame c.fd with
              | Some reply -> on_reply c reply
              | None | (exception (Wire.Protocol_error _ | Unix.Unix_error _)) ->
                let v = verb verbs "dropped" in
                v.attempted <- v.attempted + 1;
                v.failed <- v.failed + 1;
                c.done_ <- true)
          active;
        loop ()
      end
  in
  loop ();
  let elapsed = Clock.now () -. t0 in
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) cs;
  { verbs; reads; batches_per_conn = Array.map (fun c -> c.batches) cs;
    load_facts = !load_facts; load_s = !load_s; elapsed }

(* One request on a fresh connection; the final-state and follower
   checks use it. *)
let request socket payload =
  let fd = connect socket in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () -> exchange fd payload)
