(** Sparse Markowitz LU of a simplex basis, written as an eta file.

    A right-looking sparse Gaussian elimination in product form: the
    pivot order follows a Markowitz heuristic (sparsest columns first,
    then the candidate row of least incidence, subject to a relative
    stability threshold), which keeps the fill-in near nnz(B) on the
    banded marginal-balance matrices. Each pivot emits the L eta of the
    partially eliminated column; the frozen U parts are appended in
    reverse pivot order, so FTRAN through the file performs back
    substitution. Columns with no usable pivot left are deferred to a
    dense FTRAN pass, and rows nothing covers are repaired with their
    artificial unit column.

    All working storage lives in a {!workspace} reused across
    factorizations: the active entries of each column as (row, value,
    insertion stamp) in a segment of a compacting arena, the frozen U
    entries and the per-row column occupancy as pooled linked lists, a
    dense row→slot map for the column being updated, and per-count
    bitsets that yield the candidate columns without scanning every
    column. Its size follows the live part of one factorization.

    The pivot sequence and the order of every eta's entries are frozen:
    they replay, bit for bit, the hash-table implementation this module
    replaced (see the implementation notes), because simplex
    trajectories are chaotic in the last bit of the eta values. The
    order is independent of the process's hash-table seed. *)

type input = {
  cols : Mapqn_sparse.Csr.t;
      (** column-major matrix: CSR row [j] is standard-form column [j],
          with distinct row indices *)
  n_struct : int;  (** structural columns; column [n_struct + k] is artificial [k] *)
  art_row : int array;  (** artificial [k] -> its row *)
  art_sign : float array;  (** the artificial of row [i] is [art_sign.(i)·e_i] *)
  basis : int array;  (** basis position -> column; overwritten, see {!factorize} *)
}

type result = {
  deferred : int list;
      (** basis positions deferred to the dense pass, in deferral order *)
  dropped : int list;
      (** columns dropped as numerically dependent, in deferral order *)
  repaired : int list;
      (** rows covered by their artificial column, ascending *)
  growth : float;  (** largest |entry| produced over largest |basis entry| *)
  min_pivot : float;  (** smallest accepted |pivot| ([0.] if none) *)
  max_pivot : float;  (** largest accepted |pivot| *)
}

type workspace

val workspace : int -> workspace
(** Storage for factorizing bases of up to the given number of rows
    (below 2²¹). A workspace keeps no state from one factorization to
    the next, so any number of solvers may share one, one call at a
    time. *)

val rows : workspace -> int
(** The largest basis the workspace can factorize. *)

val factorize : workspace -> Eta_file.t -> input -> result
(** [factorize ws file input] clears [file] and writes the eta file of
    the basis [input.basis] into it, then overwrites [input.basis] with
    the row assignment: [basis.(i)] is the column pivoted on row [i]
    (dropped columns are gone, repaired rows hold their artificial).
    The represented basis, as a set, is unchanged except for drops and
    repairs. Raises [Invalid_argument] if the basis is longer than
    [rows ws]. *)

val observe : (input -> unit) -> (unit -> 'a) -> 'a
(** [observe f k] runs [k], calling [f] on the input of every
    factorization started on the calling domain meanwhile, before it
    runs ([f] must copy [input.basis] to keep it). The hook the
    differential tests use to harvest the bases a real solve
    factorizes. *)
