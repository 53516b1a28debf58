(** Monotonic counters and fixed-bucket histograms, registered by name in
    a per-enclave registry. Zero dependencies, allocation-free on the
    update paths; the registry is only walked when exporting. *)

type counter

type histogram

type registry

val create : unit -> registry

val counter : registry -> string -> counter
(** Get-or-create. A name registers one kind only: asking for a counter
    under a histogram's name raises [Invalid_argument]. *)

val histogram : registry -> string -> bounds:int array -> histogram
(** Get-or-create. [bounds] are inclusive upper bounds per bucket, in
    strictly increasing order; values above the last bound land in an
    implicit overflow bucket. The bounds of an existing histogram are
    kept (the argument is ignored on re-lookup). *)

val inc : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val observe : histogram -> int -> unit

val hist_count : histogram -> int
val hist_sum : histogram -> int

val bucket_counts : histogram -> int array
(** One cell per bound plus the trailing overflow bucket. *)

val latency_buckets_ns : int array
(** Default latency scale: 100 ns … 100 ms, decades. *)

val size_buckets : int array
(** Default I/O-size scale: 64 B … 256 KiB, powers of four. *)

val to_text : registry -> string
(** Plain-text dump, one metric per line, registration order. *)

val to_json_items : registry -> (string * float) list
(** Flattened scalars for machine-readable output: a counter yields
    [name]; a histogram yields [name.count], [name.sum], [name.mean],
    [name.max]. *)
