(** The paper's memory system (Table 1): a three-level non-inclusive
    write-back hierarchy in front of DRAM.

    {v
      Level      Capacity  Assoc  Line  Hit latency
      FLC (L1D)  32 KB     2-way  64 B    3 cycles
      MLC (L2D)  512 KB    8-way  64 B   14 cycles
      LLC (L3D)  1024 KB  16-way  64 B   35 cycles
      DRAM                               250 cycles
    v} *)

type level_config = {
  lv_name : string;
  lv_capacity : int;
  lv_assoc : int;
  lv_line : int;
  lv_latency : int;
  lv_replacement : Cache.replacement;
}

type config = { levels : level_config list; dram_latency : int }

val paper_table1 : config
(** Exactly the paper's Table 1. *)

val scaled_config : factor:int -> config
(** Table 1 with capacities divided by [factor] (latency and geometry
    otherwise unchanged) — for fast unit tests.
    @raise Invalid_argument if any scaled capacity is invalid. *)

type t

val create : config -> t

val access : t -> addr:int -> is_write:bool -> int
(** Performs the access and returns its latency in cycles: the hit latency
    of the first level that hits, or [dram_latency] after missing
    everywhere.  Missing levels on the path allocate the line (normal
    non-inclusive fill). *)

val access_depth : t -> addr:int -> is_write:bool -> int
(** Performs the access like {!access} and returns how deep it went: the
    index of the level that hit ([0] for the first level), or the number
    of levels when it missed everywhere and went to DRAM.  The depth
    alone settles an access's latency, since levels exchange no traffic
    ({!Cycletrace} relies on this). *)

type level_stats = { ls_name : string; ls_stats : Cache.stats }

val stats : t -> level_stats list

val dram_accesses : t -> int

val flush : t -> unit

val config : t -> config
