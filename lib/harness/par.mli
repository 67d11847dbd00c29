(** Parallel building blocks shared by the campaign drivers.

    Everything here preserves the sequential drivers' observable output
    bit-for-bit: work is dispatched to an execution pool but consumed in
    stable task order, so a campaign's tables are identical across [-j]
    values and across runs at the same seed. *)

type ('a, 'r) verdict = Accept of 'a | Reject of 'r

val collect :
  Pool.t ->
  n:int ->
  seed0:int ->
  classify:(seed:int -> ('a, 'r) verdict) ->
  'a list * 'r list
(** Evaluate candidate seeds [seed0, seed0+1, ...] in parallel batches and
    scan the verdicts in seed order, exactly as the sequential
    generate-and-filter loops did: the first [n] accepted candidates are
    returned (in seed order) together with the rejection tags of every
    seed consumed before the [n]-th acceptance. Seeds evaluated beyond
    that point are discarded unobserved, so the result — including the
    discard tallies — is independent of batch size and [-j]. [classify]
    must be pure. *)

val count : 'r list -> tag:'r -> int
(** Occurrences of [tag] in a rejection list. *)

val record_bucket : Majority.bucket -> unit
(** One ["cells.class.<name>"] tick — the campaign tables' post-vote
    classification tallies. *)

val crash_of_exn : exn -> Outcome.t
(** The campaigns' exception-isolation policy: an uncaught harness
    exception becomes a crash cell. *)

(** How one driver's tasks map onto journalled cells — the only
    per-driver part of {!grid}. *)
type ('t, 'r) codec = {
  key : 't -> string * int * int * string;
      (** the cell's journal key [(mode, seed, config, opt)] *)
  encode : 't -> 'r -> Outcome.t list * string;
      (** a result as its journalled [(outcomes, note)]; the outcomes are
          also what the cell contributes to the ["outcomes.<tag>"]
          metrics *)
  decode : 't -> Journal.cell -> ('r * Interp.stats) option;
      (** replay the journalled cell found under [key]; [None] re-executes *)
  placeholder : 't -> 'r;
      (** the instant result of a cell outside the worker's shard *)
  exec : flow:int -> 't -> 'r * Interp.stats;
      (** run the cell; [flow] is its global index, for exec spans *)
  on_error : 't -> exn -> 'r;
      (** exception isolation: the cell's result when [exec] raises a
          non-fatal exception (fatal exhaustion is re-raised) *)
}

val outside_shard : Outcome.t
(** The placeholder outcome of a cell a worker does not execute. *)

val grid :
  Pool.t ->
  ?sink:(Journal.cell -> unit) ->
  ?resume:Journal.cell list ->
  ?exec_filter:(int -> bool) ->
  ('t, 'r) codec ->
  base:int ->
  't list ->
  'r list
(** The campaigns' cell grid: [grid pool ?sink ?resume ?exec_filter codec]
    indexes [resume] once and returns a runner; [runner ~base tasks] runs
    one batch of cells whose global indices are [base], [base + 1], ...
    (a driver with several batches — modes, fuzzing generations — calls
    it with the running cell count). Results are in task order and
    byte-identical across [-j]:

    - a task whose key is found in [resume] and that [decode] accepts is
      replayed, never scheduled;
    - with [exec_filter], a non-replayed task whose global index is
      rejected yields its [placeholder] instantly (a fabric worker's
      out-of-shard cell; the caller must discard the fold and forward
      only the cells its [sink] accepted);
    - every other task runs [exec ~flow:index] on the pool;
    - [sink] receives each cell — replayed, placeholder and fresh alike —
      as a {!Journal.cell} in global task order, streamed as the ready
      prefix grows, so a journal written from it is crash-safe and
      byte-identical to an uninterrupted run's; cells are only built
      when a sink is armed;
    - each merged cell is folded into the global {!Metrics} registry
      once, in task order: cell count, interpreter work totals and
      histogram (replayed cells with their decoded stats), and one
      ["outcomes.<tag>"] tick per encoded outcome. Generation batches
      ({!collect}) are never counted — their evaluated seed set depends
      on the pool size — so the totals are [-j]-invariant. *)

val chunk : int -> 'a list -> 'a list list
(** Split into consecutive chunks of the given size (the last may be
    shorter) — used to regroup a flat cell-result list by kernel. *)
