(** A domain-safe table that holds the entries of one group at a time.

    Entries are keyed within a group.  Looking up a key in another group
    first drops every entry of the current group, so the table never
    retains more than one group's entries.  The engine keeps its cycle
    traces here, grouped by (program, input, hierarchy): a workload's
    methods all run on one input, so its later passes find the traces of
    its first, while a caller that moves on to another input releases
    them. *)

type 'a t

val create : unit -> 'a t

val find : 'a t -> group:string -> key:string -> 'a option
(** Make [group] current (dropping the previous group's entries if it
    was another) and look up [key] in it. *)

val add : 'a t -> group:string -> key:string -> 'a -> unit
(** Store an entry, unless another group became current in the meantime
    (its result then belongs to a group nobody will ask for again).  A
    key already present keeps its first entry. *)

val length : 'a t -> int
(** Entries currently held. *)
