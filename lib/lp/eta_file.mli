(** Product-form basis inverse: a growable file of eta matrices.

    One eta matrix E is the identity except column [row], which holds a
    pivoted column w ([pivot] = w_row on the diagonal, [idx]/[vals] its
    off-diagonal nonzeros). The file represents B⁻¹ = Eₖ⁻¹ ⋯ E₁⁻¹: FTRAN
    applies the inverses oldest-first, BTRAN the transposed inverses
    newest-first. Simplex pivots append one eta each; a refactorization
    ({!Markowitz.factorize}) clears the file and rebuilds it from the
    identity.

    {b Checked once.} An eta is validated when it enters the file, and
    the file keeps its {e row bound}: one more than the largest row any
    eta touches ({!row_bound}). Each kernel ({!ftran}, {!btran},
    {!btran_unit}) checks its vector's length against the bound once per
    call and raises [Invalid_argument] if the vector is shorter; its
    per-entry loops then run without bounds checks. The file owns the
    arrays of every eta it holds and hands out only copies, so the
    validated bound cannot be broken from outside. *)

type eta = { row : int; pivot : float; idx : int array; vals : float array }

type t

val create : unit -> t
(** An empty file (the identity), with row bound 0. *)

val clear : t -> unit
(** Back to the identity, keeping the buffer; the row bound drops to 0. *)

val push : t -> eta -> unit
(** Append an eta whose entries may be in any order. Raises
    [Invalid_argument] when [row] or an [idx] entry is negative, or when
    [idx] and [vals] differ in length; the file is then unchanged.
    [push] takes ownership of [idx] and [vals]: the caller must not
    modify them afterwards. *)

val push_pivot : t -> float array -> int -> int -> unit
(** [push_pivot t w r m] appends [of_pivot w r m] (nothing when that is
    [None]) and records that its entries ascend by row, which lets
    {!btran_unit} look rows up in it by binary search. Its eta is valid
    by construction; it raises [Invalid_argument] only when {!of_pivot}
    does. *)

val length : t -> int
(** Etas in the file. *)

val nnz : t -> int
(** Stored nonzeros: off-diagonal entries plus one pivot per eta. *)

val row_bound : t -> int
(** One more than the largest row any eta in the file touches (0 when
    empty): the shortest vector the kernels accept. *)

val get : t -> int -> eta
(** [get t k] is a copy of the [k]-th eta, oldest first: modifying its
    arrays does not change the file. Raises [Invalid_argument] unless
    [0 <= k < length t]. *)

val is_ascending : t -> int -> bool
(** Whether the [k]-th eta came from {!push_pivot}, so that {!btran_unit}
    may binary-search its entries. Raises [Invalid_argument] unless
    [0 <= k < length t]. *)

val ftran : t -> float array -> unit
(** [x <- B⁻¹ x]. Raises [Invalid_argument] when [x] is shorter than
    {!row_bound}; entries past the bound are left unchanged. *)

val btran : t -> float array -> unit
(** [y <- B⁻ᵀ y]. Raises [Invalid_argument] when [y] is shorter than
    {!row_bound}; entries past the bound are left unchanged. *)

val btran_unit : t -> int -> float array -> unit
(** [btran_unit t i y] sets [y <- B⁻ᵀ eᵢ] ([m] is [Array.length y]).
    Raises [Invalid_argument] when [y] is shorter than {!row_bound} or
    [i] is not an index of [y].
    The same result as filling [y] with eᵢ and calling {!btran}, bit for
    bit in every nonzero entry (for finite eta entries); only the sign of
    an exact zero may differ. It tracks the rows where [y] may be
    nonzero and, on etas from {!push_pivot} much longer than that
    support, visits only the support rows, in the order {!btran} would
    subtract them. Once the support exceeds [m/32] rows, the rest of the
    file runs {!btran}'s dense step. *)

val of_pivot : float array -> int -> int -> eta option
(** [of_pivot w r m] is the eta of pivoting the dense column [w] on row
    [r], its off-diagonal entries (rows below [m]) in ascending row
    order; [None] when E would be the identity (w is already e_r).
    Raises [Invalid_argument] unless [0 <= r < Array.length w] and
    [m <= Array.length w]. *)
