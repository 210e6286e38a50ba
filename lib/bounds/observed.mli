(** Observed influence sets: Section 3's [A(alg, i, t)] measured on an
    actual execution.

    The lower-bound proof tracks, for each processor [i] and time [t],
    the set of processors whose inputs can have influenced [i]'s state.
    Given the event trace of a real run (from
    [Countq_simnet.Trace.tap]), this module replays the
    information flow — when [i] receives a message from [j] at round
    [t], everything influencing [j] (up to the send) now influences [i]
    — and reports the per-round maximum influence-set size, ready to
    compare against the [a(t)] recurrence and the [tow(2t)] envelope of
    Lemmas 3.2–3.4.

    Messages carry the sender's influence set as of the moment the
    send was queued (snapshots matched to deliveries in FIFO order), so
    the replay tracks the information flow exactly for traces produced
    by the synchronous engine.

    Note the Lemma 3.4 envelope is a base-model bound (one receive per
    round): traces of expanded-step runs (receive capacity > 1) can
    legitimately exceed it. Compare such traces against
    [tow (2 c t)] instead, or run the traced protocol with
    [Engine.default_config]. *)

type growth = {
  rounds : int;  (** horizon of the trace. *)
  max_influence : int array;
      (** [max_influence.(t)] = largest [|A(i, t)|] over all [i], for
          [t = 0 .. rounds]; [max_influence.(0) = 1]. *)
}

val of_trace : n:int -> Countq_simnet.Trace.event list -> growth
(** Replay a trace over [n] processors. Events must be in chronological
    order (as [Trace.tap]'s reader returns them). *)

val within_envelope : growth -> bool
(** Whether [max_influence.(t) <= tow (2 t)] for every [t] — the
    Lemma 3.4 envelope, evaluated on the observed run. *)
