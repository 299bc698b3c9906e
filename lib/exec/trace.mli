(** Event-trace capture and replay — the offline half of the Pin-style
    tooling: record one (binary, input) execution to a file once, then
    drive any number of analyses from the trace without re-executing.

    The format is line-oriented text, one event per line, in program
    order:

    {v
    B <block-id> <insts>
    A <addr> r|w
    M <marker-key>
    v}

    Replay feeds an {!Executor.observer}, so every consumer that works on
    live executions (profilers, interval builders, the cache model) works
    on traces unchanged. *)

val recording_observer : out_channel -> Executor.observer
(** Events are written as they happen; the caller owns the channel. *)

val record :
  path:string -> Cbsp_compiler.Binary.t -> Cbsp_source.Input.t ->
  Executor.totals
(** Run the binary and write its full trace to [path]. *)

exception Parse_error of string

val replay_channel : in_channel -> Executor.observer -> Executor.totals
(** Feed every event in the channel to the observer; totals are
    recomputed from the stream.  The [A] lines after a block are
    delivered as its [on_access_count] before the next [B] or [M] line
    (or at the end), exactly as {!Executor.run} delivers them; their
    addresses reach only an observer that reads addresses.
    @raise Parse_error on malformed lines, including a negative block
    id, instruction count or address. *)

val replay : path:string -> Executor.observer -> Executor.totals
