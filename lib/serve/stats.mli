(** Thread-safe serving counters and a fixed-bucket latency histogram.

    Latencies land in log-spaced microsecond buckets (1–2–5 per
    decade, 1 µs to 10 s); p50/p99 are read off the histogram as the
    upper edge of the bucket where the cumulative count crosses the
    quantile — coarse, allocation-free, and stable under concurrency.

    {!to_json} renders everything as one JSON object through
    {!Cbmf_robust.Json}; the serve smoke test validates its schema. *)

type t

val create : unit -> t

val record : ?batch:int -> t -> op:string -> ok:bool -> seconds:float -> unit
(** Count one request of kind [op] ("load", "predict", "stats", …),
    its batch size if any, whether it succeeded, and its wall-clock
    latency. *)

val record_shed : t -> unit
(** One connection refused by admission control (queue full → typed
    [Overloaded] reply and close). *)

val record_deadline : t -> unit
(** One request answered [Deadline_exceeded]. *)

val set_queue_depth : t -> int -> unit
(** Update the pending-connection gauge (also tracks its peak). *)

val record_queue_wait : t -> seconds:float -> unit
(** Time one connection spent on the admission queue (accept → worker
    pickup). *)

val record_batch_phase : t -> batch_wait:float -> compute:float -> unit
(** Per predict request: time parked in the dynamic batcher (enqueue →
    drain) and engine compute time (its share being the whole merged
    call), both in seconds. *)

val record_flush : t -> requests:int -> points:int -> unit
(** One merged engine call: how many wire requests it coalesced and how
    many points it carried (the occupancy histogram buckets are point
    counts, not µs). *)

val sheds : t -> int

val deadlines : t -> int

val phase_quantile :
  t -> [ `Queue_wait | `Batch_wait | `Compute | `Occupancy ] -> float -> float
(** Upper bucket edge (µs) at the given quantile in [0, 1] of one of the
    phase histograms ([`Occupancy] is in points); 0 when nothing was
    recorded. *)

val to_json : ?extra:(string * Cbmf_robust.Json.t) list -> t -> string
(** One JSON object: per-op request counts, error count, total points,
    max batch size, p50/p99 and the non-empty histogram buckets, the
    per-phase latency split ("phases": queue-wait / batch-wait /
    compute) and the batch-occupancy histogram ("batch_occupancy").
    A quantile in the overflow bucket renders as ["inf"].  [extra]
    appends members (e.g. [("registry", registry_json stats)]). *)

val registry_json : Registry.stats -> Cbmf_robust.Json.t
(** The registry counters as a JSON object, for {!to_json}'s [extra]. *)
