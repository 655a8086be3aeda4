(** Compressed sparse row matrices.

    The exact CTMC generators of MAP networks have O(M·H) nonzeros per row
    but up to tens of thousands of rows; CSR keeps assembly and
    matrix-vector products linear in the nonzero count.

    {b Checked once.} The type is abstract and {!of_coo_array} is the only
    constructor that builds a structure, validating every coordinate. So
    the kernels {!dot_row}, {!dot_rows}, {!scatter_row}, {!mat_vec} and
    {!vec_mat} check their row index and vector lengths once per call,
    raising [Invalid_argument] on a mismatch, and run their per-entry
    loops without bounds checks. *)

type t

val nrows : t -> int
val ncols : t -> int
val nnz : t -> int

val of_coo : rows:int -> cols:int -> (int * int * float) list -> t
(** Build from coordinate triplets [(i, j, v)]. Duplicate coordinates are
    summed; explicit zeros are dropped. *)

val of_coo_array : rows:int -> cols:int -> (int * int * float) array -> t
(** Same as {!of_coo} from an array (avoids list overhead for large
    assemblies). The array is not modified. *)

val of_dense : Mapqn_linalg.Mat.t -> t
val to_dense : t -> Mapqn_linalg.Mat.t

val get : t -> int -> int -> float
(** O(log nnz-per-row) lookup; absent entries read as [0.]. *)

val iter_row : t -> int -> (int -> float -> unit) -> unit
(** Iterate the nonzeros [(col, value)] of one row. *)

val nnz_row : t -> int -> int
(** Stored entries in one row — O(1). *)

val row_start : t -> int -> int
(** Position of row [i]'s first stored entry: row [i] holds positions
    [row_start t i] to [row_start t (i + 1) - 1] ([i] may be [nrows]).
    With {!entry_col} and {!entry_value}, a closure-free traversal for
    hot loops where {!iter_row} would box every value. *)

val entry_col : t -> int -> int
(** Column of the entry at a stored position. *)

val entry_value : t -> int -> float
(** Value of the entry at a stored position. *)

val dot_row : t -> int -> float array -> float
(** [dot_row t i x] is row [i] of [t] dotted with the dense vector [x],
    the terms added in stored order — one column of a constraint matrix
    stored column-major (each "row" of the transpose is one column)
    against a dual vector. Raises [Invalid_argument] unless
    [0 <= i < nrows t] and [Array.length x >= ncols t]. *)

val dot_rows : t -> float array -> skip:bool array -> float array -> unit
(** [dot_rows t x ~skip out] sets [out.(i)] to [dot_row t i x], bit for
    bit, for every row [i] where [skip.(i)] is [false], leaving the other
    entries of [out] alone — pricing's pass over every nonbasic column.
    The sums go straight into [out], so none is boxed, as {!dot_row}'s
    result is wherever the call is not inlined. Raises
    [Invalid_argument] when [x] is shorter than [ncols t], or [skip] or
    [out] shorter than [nrows t]. *)

val scatter_row : t -> int -> float array -> unit
(** [scatter_row t i x] adds row [i] of [t] into the dense vector [x]
    ([x.(j) <- x.(j) +. a_ij]) — used to expand one sparse column into a
    dense work vector before a basis solve (FTRAN). Raises
    [Invalid_argument] unless [0 <= i < nrows t] and
    [Array.length x >= ncols t]. *)

val iter : t -> (int -> int -> float -> unit) -> unit
(** Iterate all nonzeros in row-major order. *)

val mat_vec : t -> float array -> float array
(** [A x]. Raises [Invalid_argument] unless [Array.length x = ncols t]. *)

val vec_mat : float array -> t -> float array
(** [xᵀ A] — the row-vector product used by stationary iterations.
    Raises [Invalid_argument] unless [Array.length x = nrows t]. *)

val transpose : t -> t
val row_sums : t -> float array
val scale : float -> t -> t
val map_values : (float -> float) -> t -> t
(** Pointwise transform of stored values (structure unchanged; resulting
    zeros are kept as explicit entries). *)
