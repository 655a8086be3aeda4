(** Product-form basis inverse: a growable file of eta matrices.

    One eta matrix E is the identity except column [row], which holds a
    pivoted column w ([pivot] = w_row on the diagonal, [idx]/[vals] its
    off-diagonal nonzeros). The file represents B⁻¹ = Eₖ⁻¹ ⋯ E₁⁻¹: FTRAN
    applies the inverses oldest-first, BTRAN the transposed inverses
    newest-first. Simplex pivots append one eta each; a refactorization
    ({!Markowitz.factorize}) clears the file and rebuilds it from the
    identity. *)

type eta = { row : int; pivot : float; idx : int array; vals : float array }

type t

val create : unit -> t
(** An empty file (the identity). *)

val clear : t -> unit
(** Back to the identity, keeping the buffer. *)

val push : t -> eta -> unit
(** Append an eta whose entries may be in any order. *)

val push_pivot : t -> float array -> int -> int -> unit
(** [push_pivot t w r m] appends [of_pivot w r m] (nothing when that is
    [None]) and records that its entries ascend by row, which lets
    {!btran_unit} look rows up in it by binary search. *)

val length : t -> int
(** Etas in the file. *)

val nnz : t -> int
(** Stored nonzeros: off-diagonal entries plus one pivot per eta. *)

val get : t -> int -> eta
(** [get t k] is the [k]-th eta, oldest first. *)

val ftran : t -> float array -> unit
(** [x <- B⁻¹ x]. *)

val btran : t -> float array -> unit
(** [y <- B⁻ᵀ y]. *)

val btran_unit : t -> int -> float array -> unit
(** [btran_unit t i y] sets [y <- B⁻ᵀ eᵢ] ([m] is [Array.length y]).
    The same result as filling [y] with eᵢ and calling {!btran}, bit for
    bit in every nonzero entry (for finite eta entries); only the sign of
    an exact zero may differ. It tracks the rows where [y] may be
    nonzero and, on etas from {!push_pivot} much longer than that
    support, visits only the support rows, in the order {!btran} would
    subtract them. Once the support exceeds [m/32] rows, the rest of the
    file runs {!btran}'s dense step. *)

val of_pivot : float array -> int -> int -> eta option
(** [of_pivot w r m] is the eta of pivoting the dense column [w] (length
    [m]) on row [r], its off-diagonal entries in ascending row order;
    [None] when E would be the identity (w is already e_r). *)
