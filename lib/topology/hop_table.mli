(** Destination-major next-hop routing over a materialised graph: row
    [dst] is {!Bfs.parents}[ g dst], built the first time any vertex
    routes to [dst], so a message walking toward [dst] reads cells of
    one O(n) row, and only destinations routed to cost memory.

    Safe to share between domains. A row depends only on [(g, dst)] and
    is stored with one array write through OCaml's write barrier, which
    publishes the finished row with release ordering. Two domains that
    fill the same row write equal arrays; a reader sees either the empty
    placeholder or a complete row. *)

type t

val create : Graph.t -> t
(** O(n), no row built. A disconnected [g] is accepted. *)

val row : t -> int -> int array
(** [row t dst] is [Bfs.parents g dst]: each vertex's neighbour one hop
    closer to [dst]; [dst] and vertices that cannot reach it map to
    themselves. Do not mutate it. *)

val next : t -> src:int -> dst:int -> int
(** [(row t dst).(src)]. *)
