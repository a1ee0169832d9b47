(** Configurable cost models over {!Metrics} counters.

    The paper's 1999 timings were dominated by disk behaviour: a
    sequential scan amortizes one page read over many tuples, while
    Olken-Sample's random tuple fetches and index probes each risk a
    page fault. On this library's in-memory substrate those costs
    collapse, which flips some orderings (see EXPERIMENTS.md). A cost
    model re-weights the hardware-independent counters so both eras can
    be read off the same run:

    cost = seq_pages·[sequential_page_cost]
         + (random_accesses + index_probes)·[random_page_cost]
         + cpu_tuples·[cpu_tuple_cost]

    where seq_pages = ceil(tuples_scanned / page_size_tuples) and
    cpu_tuples = join outputs + hash builds + sorts + rejections +
    statistics lookups. The [default_disk] constants follow the
    conventional 4:1 random-to-sequential page ratio. *)

type t = {
  page_size_tuples : int;  (** Tuples per page (> 0). *)
  sequential_page_cost : float;
  random_page_cost : float;
  cpu_tuple_cost : float;
}

val default_disk : t
(** 100 tuples/page, sequential 1.0, random 4.0, cpu 0.01 — magnetic-
    disk-era relative costs (the paper's setting). *)

val relative_pct : t -> baseline:Metrics.t -> Metrics.t -> float
(** [relative_pct model ~baseline m] = 100 · cost(m) / cost(baseline),
    NaN when the baseline costs nothing. Raises [Invalid_argument] when
    [page_size_tuples <= 0]. *)
