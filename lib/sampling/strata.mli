(** Phase-1 stratification for two-phase sampling: ways of cutting the
    interval population into strata before any detailed simulation, plus
    the Neyman-style allocation of the phase-2 budget.

    Two stratifications are provided out of the box, both computable from
    the cheap BBV pass alone:

    - {b k-means phases} — reuse SimPoint's clustering labels as strata
      (the pipeline passes its [cl_phase_of] array straight through);
    - {b instruction-mix quantiles} — bin intervals by their
      memory-access mix ({!access_mix}), a static-rate-weighted BBV
      reduction that needs no cache model;
    - {b static locality classes} — label intervals by the dominant
      stride/dependence class of their traffic ({!static_locality}),
      derived from the binary's access patterns and array spans alone. *)

val quantile_bins : bins:int -> float array -> int array
(** [quantile_bins ~bins feature] labels each element with its quantile
    bin in [0, bins): element [x] gets the number of interior quantile
    thresholds strictly below [x].  Heavily tied features collapse bins
    (fewer distinct labels), which stratified sampling handles by
    dropping empty strata.  @raise Invalid_argument if [bins < 1]. *)

val access_mix : Cbsp_compiler.Binary.t -> float array -> float
(** [access_mix binary] is the per-interval memory-access mix of one
    BBV: accesses (spills included) per instruction, reconstructed from
    the interval's BBV and the binary's static per-block access rates
    (computed once, at partial application).  Pure per interval, so a
    streaming pass applies it to each BBV as the builder emits it.  A
    phase-1 proxy for memory-boundness — intervals with high mix tend to
    have high and variable CPI — that costs one array product per
    interval, no simulation.  An all-zero BBV gets mix 0.
    @raise Invalid_argument if a BBV's dimension is not [n_blocks]. *)

val n_locality_classes : int
(** Size of {!static_locality}'s label space (6). *)

val static_locality :
  Cbsp_compiler.Binary.t -> llc_bytes:int -> float array -> int
(** [static_locality binary ~llc_bytes] labels one BBV with its
    dominant locality class, in
    [0, n_locality_classes): 0 = no weighted traffic (compute), 1 =
    LLC-resident regular (unit/fixed-stride [Seq] arrays fitting in
    [llc_bytes], plus stack spills), 2 = DRAM-bound regular, 3 =
    LLC-resident irregular ([Rand]/[Hot]), 4 = DRAM-bound irregular, 5 =
    dependent pointer chase.  A BBV gets the class with the
    largest BBV-weighted accesses-per-instruction mass.  Unlike
    {!quantile_bins} over {!access_mix}, the label space is fixed by the
    binary and the hierarchy geometry — no per-population quantile or
    clustering pass — so it is the "profile-free" stratification of the
    static locality analyzer.
    @raise Invalid_argument if a BBV's dimension is not [n_blocks], or
    (at partial application) if [llc_bytes < 0]. *)

val allocate :
  scores:float array -> sizes:int array -> total:int -> int array
(** Split a phase-2 budget of [total] samples over strata of the given
    [sizes] (population counts): every non-empty stratum gets one sample,
    then one more while budget lasts (so its variance is estimable), then
    the rest go greedily by highest average [scores.(h) / (alloc_h + 1)]
    — the D'Hondt rule, which approximates proportional-to-score (Neyman,
    when scores are [W_h * S_h]) allocation under the integer and
    per-stratum-size constraints.  Pass the sizes themselves as scores
    for plain proportional allocation.  Allocations never exceed sizes; a
    [total] above the population is clamped.
    @raise Invalid_argument if [total] is below the number of non-empty
    strata, a size is negative, or [scores] has the wrong length. *)
