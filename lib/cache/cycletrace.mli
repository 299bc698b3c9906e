(** Cycle traces: simulate the cache model once per (binary, input,
    hierarchy), replay it for every later pass.

    A {!sim} is the CPI model of one executor pass, in one of two modes:

    - {!live} runs a fresh {!Hierarchy} and, as a by-product, records a
      trace: for every block event followed by accesses, how many of
      those accesses (up to the next block event) missed each level;
    - {!replay} reads such a trace back and attaches no hierarchy at
      all; its observer reads no addresses.

    Both modes expose the same {!cycles} and {!extra_counters} as
    {!Cpu}, and both are exact: levels exchange no traffic, so an
    access's latency is settled by the depth it reaches, and per block
    the miss counts of each level determine every stall cycle and every
    counter.  Interval builders sample the model only at block and
    marker events, after a block's accesses are all accounted, so a
    replayed pass reports bit-identical cycles and counters at every
    cut.  All sums are integers below 2{^53}, so the float totals agree
    with {!Cpu}'s running float sum bit for bit.

    {b Encoding.}  One record per block event that has accesses.  A
    live sim writes it, and a replay reads it, at the block's
    {!Cbsp_exec.Executor.observer.on_access_count} event, so blocks
    without accesses cost neither a byte nor a decode, and a replay
    reads no addresses at all: its executor pass generates none.  A record's first byte
    is a dictionary code for the miss counts of the first three levels,
    one code per ordered triple [9 >= m1 >= m2 >= m3 >= 0] (deeper
    levels never miss more often than shallower ones); byte 255 escapes
    to one unsigned LEB128 varint per level of the triple.  Each level
    below the third follows as a varint, only when the level above it
    missed.  On the registry programs a record is 1 byte (1.7 on bzip2),
    about half a byte per block event.  Bytes live in fixed-size chunks,
    so a growing trace never doubles and copies one large buffer. *)

type t
(** A recorded trace: immutable once {!finish} returns it. *)

type sim

val live : ?config:Hierarchy.config -> unit -> sim
(** A live model over a fresh hierarchy (default
    {!Hierarchy.paper_table1}) that records its trace.  Counts one
    [cache.sim_passes]. *)

val replay : t -> sim
(** A model that replays [t], with no hierarchy attached.  The pass must
    execute the same (binary, input) that recorded [t].  Counts one
    [cache.replay_passes]. *)

val observer : sim -> Cbsp_exec.Executor.observer
(** Plug into an executor run.  When composed with an interval builder,
    the builder must come first so that a cut taken at a block event
    excludes that block, exactly as with {!Cpu.observer}. *)

val cycles : sim -> float
(** Total cycles so far: one per instruction plus every access's hit
    latency.  Equal to {!Cpu.cycles} at every block and marker event. *)

val insts : sim -> int

val extra_counter_names : sim -> string list
(** Same labels as {!Cpu.extra_counter_names}. *)

val extra_counters : sim -> float array
(** Same values as {!Cpu.extra_counters} at every block and marker
    event: per-level misses, DRAM accesses, total accesses. *)

val finish : sim -> t
(** End the pass.  A live sim closes its last record and returns the
    new trace; a replaying sim returns the trace it read.
    @raise Invalid_argument if a replay consumed more or fewer records
    than its trace holds (the pass ran a different binary or input). *)

val records : t -> int
(** Records in the trace: one per block event that was followed by at
    least one access. *)

val byte_size : t -> int
(** Encoded size in bytes, excluding the unused tail of the last chunk. *)
