(* Monotonic seconds with nanosecond resolution, for latencies and
   spans. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
