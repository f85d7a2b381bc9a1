(** A hand-rolled fixed-size [Domain] work pool (OCaml 5 stdlib only —
    no domainslib).

    The pool owns [domains - 1] worker domains; the caller of
    {!map_array} is the remaining participant, so a
    pool of size [n] computes with [n] domains total. Work is split
    into chunks claimed dynamically off a shared atomic cursor, which
    load-balances uneven per-item costs (candidate evaluations vary
    wildly in how much of the affected subspace they touch).

    {b Auto-tuned chunking.} A pool never materializes more than
    [Domain.recommended_domain_count () - 1] worker domains, and each
    job activates at most [Domain.recommended_domain_count ()]
    participants — a pool configured with more domains than the host
    has cores (e.g. [IQ_DOMAINS=2] in a single-core container) keeps
    all the work on the caller and spawns nothing, instead of paying
    stop-the-world minor-GC synchronization (which every live domain
    joins, parked or not) for no extra compute. Oversubscribed pools
    therefore run within noise of [~domains:1]. When several cores are genuinely
    available, the first nominal chunk runs inline as a timing probe
    and the rest of the range is re-chunked so that every chunk's work
    amortizes the pool's measured dispatch overhead (calibrated once
    per pool, median of three empty-job round-trips) at least 4x:
    cheap loops degrade to the sequential path automatically,
    expensive ones still over-decompose 4 chunks per active domain for
    cursor load-balancing. None of this changes results — only where
    and in how many pieces the same indices run.

    {b Sequential bypass.} A pool created with [~domains:1] spawns no
    domains at all: every operation degrades to a plain [for] loop on
    the calling domain, so results — including evaluation-order
    effects — are byte-identical to code that never heard of this
    module. The same bypass applies to nested calls: a task already
    running inside a pool operation executes nested pool operations
    sequentially (no re-entrant scheduling, no deadlock).

    {b Sharing discipline.} The one task shape is a function whose
    result {!map_array} stores for the caller, so no task needs a
    shared write to hand back its work. A task writes only [Atomic]s
    (instrumentation counters) or state it allocated itself; every
    other value it touches is read-only while the job runs. The IQ
    hot paths satisfy this by construction: the prefix scan, the
    RTA/naive shard counts and the candidate evaluations read
    immutable [Instance] arrays and a frozen index. The cross-domain
    determinism tests (answers and evaluation counts identical on 1
    and 4 domains) guard the contract: a lost update on a shared
    non-atomic counter shows up there as a diverging count. *)

type pool

val default_domains : unit -> int
(** Pool size knob: the [IQ_DOMAINS] environment variable when set to
    a positive integer, otherwise
    [max 1 (Domain.recommended_domain_count () - 1)] (leaving one core
    for the OS / the main program on big machines, and degrading to
    the sequential bypass on single-core containers). *)

val create : ?domains:int -> unit -> pool
(** [create ()] builds a pool of [default_domains ()] total domains —
    at most [domains - 1] spawned workers, further capped at the
    host's spare cores (see the auto-tuning note above). [~domains:1]
    spawns nothing and makes every operation a sequential loop.
    @raise Invalid_argument when [domains < 1]. *)

val default : unit -> pool
(** The shared process-wide pool, created lazily from
    {!default_domains} on first use and shut down at exit. Library
    entry points that take [?pool] use [None] = "stay sequential";
    pass [Parallel.default ()] to opt into the shared pool. *)

val domains : pool -> int
(** The configured pool size, [>= 1] — what the caller asked for, not
    the (possibly core-capped) number of spawned workers. *)

val live : unit -> int
(** Number of pools created and not yet shut down, process-wide. A
    well-behaved server routes everything through one shared pool —
    [bin/iq_tool] asserts [live () = 1] after engine construction. *)

val map_array :
  ?stop:(unit -> bool) ->
  ?on_chunk:(unit -> unit) ->
  pool ->
  ('a -> 'b) ->
  'a array ->
  'b array
(** Chunked, order-preserving parallel map: [map_array pool f arr]
    returns an array [r] with [r.(i) = f arr.(i)] — same length, same
    positions, regardless of which domain computed which element.
    Evaluation order is unspecified across domains. Any exception
    raised by some [f arr.(i)] is re-raised in the caller after all
    in-flight chunks drain (first one wins, remaining chunks are
    abandoned).

    [f arr.(0)] seeds the result array on the caller before chunking,
    so it runs even when [stop] is already true.

    [stop] is the cooperative-cancellation hook: each participant
    consults it before claiming work on a chunk and skips the chunk
    once it returns [true]. Skipped chunks still count as completed,
    so the job drains cleanly — the caller returns (without raising)
    and no worker stays busy on abandoned work. Slots of skipped
    chunks keep the seed value, so discard the array when a stop was
    requested. The serving layer passes a budget check here.

    [on_chunk] runs at the start of every chunk a participant
    actually executes (fault-injection sites hook in here). Exceptions
    from [stop]/[on_chunk] propagate exactly like exceptions from [f].

    The [domains = 1] bypass with neither hook supplied is the plain
    sequential loop, in index order; with hooks it checks [stop]
    before every element (cancellation can only land sooner than the
    chunked path). *)

val shutdown : pool -> unit
(** Join the worker domains. Idempotent. Using the pool afterwards
    falls back to sequential execution. *)
