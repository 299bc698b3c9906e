(** [cbsp-ivl/1]: the compact binary interval format [cbsp dump-bbv]
    writes — the binary successor to the text {!Bbv_file} format
    (which remains for SimPoint 3.0 interchange).

    Layout (all multi-byte integers are varints, LEB128-style,
    little-endian groups of 7 bits):

    {v
    "cbsp-ivl/1\n"                     magic
    varint n_blocks, n_extras, flags   header (flags reserved, must be 0)
    u32le adler32(header varints)      header checksum
    record*                            payload
    0x00 varint n_records              trailer
    u32le adler32(payload)             payload checksum
    v}

    Each record is [0x01], varint instruction count, float cycles,
    [n_extras] floats, then the BBV sparsely: varint nnz followed by nnz
    (index-delta varint, float count) pairs with strictly increasing
    indices.  Floats use an integral fast path — a non-negative integral
    value [n < 2^60] is the even varint [2n]; anything else (denormals,
    non-integral, negative, -0.0) is the escape varint [1] followed by
    the raw IEEE-754 bits as a varint.  Decoding is exact: every float
    round-trips bit for bit.

    All malformed-input failures raise [Invalid_argument] with an
    ["Ivl_file: ..."] message naming what was wrong (bad magic, checksum
    mismatch, truncation, out-of-range block id) — corrupt artifacts are
    user errors, not crashes.

    Encode/decode are instrumented: [ivl.bytes_written]/[ivl.bytes_read]
    counters, an [ivl.compression_ratio] histogram (dense-float64 size of
    the same records divided by encoded size), and [ivl.encode]/
    [ivl.decode] tracer spans. *)

val encode : n_blocks:int -> Interval.interval array -> string
(** Serialize intervals (BBVs must all be [n_blocks] long, extras all the
    same length).  @raise Invalid_argument on ragged input. *)

val decode : string -> Interval.interval array
(** Inflate a full profile (each interval gets fresh arrays).
    @raise Invalid_argument on malformed input. *)

val decode_fold :
  string -> init:'a -> f:('a -> Interval.interval -> 'a) -> 'a
(** Stream the records through [f] without materializing the profile.
    The interval passed to [f] aliases one scratch BBV/extras pair reused
    across records — the same contract as {!Interval.emit}: copy
    anything you retain. *)

(** {1 Streaming writer}

    Pairs with the streaming interval builders: [write w] is a valid
    {!Interval.emit}, so a profiling pass can go straight to disk holding
    O(1 interval) of memory. *)

type writer

val writer : path:string -> n_blocks:int -> n_extras:int -> writer
(** Open [path] and write the header. *)

val write : writer -> Interval.interval -> unit
(** Append one record.  @raise Invalid_argument if the interval's
    dimensions disagree with the header or the writer is closed. *)

val close : writer -> unit
(** Write the trailer and close the file.  Idempotent. *)

val written_bytes : writer -> int
(** Bytes written so far (header + records; + trailer once closed). *)

(** {1 Whole-file convenience} *)

val save : path:string -> n_blocks:int -> Interval.interval array -> unit

val load : path:string -> Interval.interval array

val read_fold : path:string -> init:'a -> f:('a -> Interval.interval -> 'a) -> 'a
