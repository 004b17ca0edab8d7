(** The input poset of a face hypercube embedding instance (Section 3.2).

    Given the set [IC] of input constraints over [n] states, the input
    poset is the intersection closure of [IC], augmented with the
    universe and all singletons, ordered by set inclusion. The input
    graph [IG] records for every element its {e fathers} (minimal strict
    supersets) and {e children} (maximal strict subsets).

    Element categories (Section 3.3.1):
    - category 1 ({e primary}): single father, the universe;
    - category 2: more than one father — its face is forced to the
      intersection of its fathers' faces;
    - category 3: single father, not the universe — its face lies
      strictly inside its father's face. *)

type element = {
  id : int;
  states : Bitvec.t;
  card : int;
  fathers : int list;
  children : int list;
  category : int;  (** 0 for the universe, otherwise 1, 2 or 3 *)
}

(** The static relation table of a poset. *)
type relations

type t = {
  num_states : int;
  elements : element array;
      (** universe first, then decreasing cardinality, ties broken by
          [Bitvec.compare]; [elements.(i).id = i] *)
  universe : int;  (** id of the universe element *)
  rel : relations;
      (** subset, intersection and shared-child relations of every pair
          of elements, read through {!pair}. They depend only on the state sets, so
          they are computed once per poset and the face-embedding
          search never recomputes a set operation. *)
}

(** [build ~num_states ics] computes the closed input poset. Empty and
    duplicate groups are ignored. *)
val build : num_states:int -> Bitvec.t list -> t

(** [extend t g] is the poset of [t]'s groups plus [g]: equal, element
    for element, to [build] over the groups of [t] and [g]. It adds only
    the intersections of [g] with [t]'s elements and computes only the
    relations that involve them, so an accretion loop that grows its
    accepted family one group at a time never rebuilds from scratch. *)
val extend : t -> Bitvec.t -> t

(** [find t states] is the id of the element equal to [states], if any. *)
val find : t -> Bitvec.t -> int option

(** The relations between two elements [i] and [j], in that order. *)
type pair = private int

(** [pair t i j] reads the relations of [i] and [j] from the table. *)
val pair : t -> int -> int -> pair

(** [subset p] holds iff the states of [i] are among those of [j]. *)
val subset : pair -> bool

(** [superset p] holds iff the states of [j] are among those of [i]. *)
val superset : pair -> bool

(** [inter_id p] is the id of the element equal to the intersection of
    [i] and [j], or [-1] when they are disjoint. *)
val inter_id : pair -> int

(** [share_children p] holds iff [i] and [j] have a common child. *)
val share_children : pair -> bool

(** [min_level e] is [ceil (log2 (card e))]: the smallest face level that
    can hold the element. *)
val min_level : element -> int

(** [singleton_ids t] maps each state [s] to the id of its singleton
    element. *)
val singleton_ids : t -> int array

(** [mincube_dim t] is the lower bound on the embedding dimension from
    the paper's three counting arguments (Section 3.3.2): face supply per
    level, father counts, and virtual states of uneven constraints. *)
val mincube_dim : t -> int

val pp : Format.formatter -> t -> unit
