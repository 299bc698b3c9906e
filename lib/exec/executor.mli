(** Deterministic execution of a binary on an input, delivered as an event
    stream — the role Pin plays in the paper.

    Events are emitted in program order:

    - [on_block id insts]: a machine basic block (or the back-edge tail of
      a loop, attributed to the loop header's id) executed;
    - [on_access addr is_write]: one data-memory access (emitted after the
      block that performs it), only to observers that read addresses;
    - [on_access_count n]: the block's [n > 0] accesses are done — fired
      after the block's last access and before the next block or marker
      event, to every observer, whether or not addresses are generated;
    - [on_marker key]: a marker site executed — procedure entry (before
      the callee body), loop entry (before the header block), loop
      back-edge (after the back-edge instructions).

    Determinism: for a fixed (binary, input) the event stream is
    bit-identical across runs; for two binaries of the same program on the
    same input, the subsequence of *unmangled, non-unrolled* marker events
    is identical — the semantic-equivalence invariant the cross-binary
    technique relies on (and which the test suite checks). *)

type observer = {
  on_block : int -> int -> unit;
  on_access : (int -> bool -> unit) option;
      (** [None]: the observer reads no addresses.  Only the live cache
          models and trace recording read them. *)
  on_access_count : int -> unit;
  on_marker : Cbsp_compiler.Marker.key -> unit;
}

and totals = {
  insts : int;      (** Total instructions executed. *)
  blocks : int;     (** Block events. *)
  accesses : int;   (** Memory accesses (data + spill). *)
  markers : int;    (** Marker events. *)
}

(* [Marker] below refers to [Cbsp_compiler.Marker]. *)

val null_observer : observer
(** Ignores everything and reads no addresses. *)

val compose : observer list -> observer
(** Fans every event out to each observer, in list order.  The composite
    reads addresses iff some part does, and passes each access only to
    the parts that read them. *)

val counting_observer : unit -> observer * (unit -> int)
(** An observer that only counts instructions, and its reader. *)

val run : Cbsp_compiler.Binary.t -> Cbsp_source.Input.t -> observer -> totals
(** Execute the whole program, interpreting the flattened form
    ({!Cbsp_compiler.Binary.flat}): contiguous statement arrays, access
    patterns pre-decoded so the per-element inner loops carry no match or
    closure dispatch, pre-allocated marker keys, and dense line-counter
    slots.

    Addresses are generated only when [obs.on_access] is [Some _].  The
    per-array cursors and RNG streams feed addresses and nothing else, so
    an address-free run delivers the same block, marker and count events
    and the same totals, with no address work and no call per access.
    Runs that generate addresses are counted in the
    [executor.address_runs] metric. *)
