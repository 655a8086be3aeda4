(** Random model generation for the paper's Table 1 experiment (§3.1):
    three-queue closed networks with random routing and MAP(2) service
    whose mean, coefficient of variation, skewness and geometric ACF decay
    rate are drawn randomly. *)

type spec = {
  stations : int;  (** number of queues (paper: 3) *)
  map_stations : int;  (** how many queues get MAP(2) service (>= 1) *)
  mean_range : float * float;  (** service-time mean, log-uniform *)
  scv_range : float * float;  (** SCV of MAP stations, uniform, >= 1 *)
  gamma2_range : float * float;  (** ACF decay, uniform in [0, 1) *)
  skewness : bool;
      (** also randomize the third moment within the H2-feasible range *)
}

val default_spec : spec
(** 3 stations, 1 MAP station, means in [0.25, 4], SCV in [1.5, 20],
    γ₂ in [0, 0.9], skewness randomized. *)

type model = {
  network : Mapqn_model.Network.t;  (** population 0; set it per experiment *)
  map_indices : int list;
  drawn_scv : float;
  drawn_gamma2 : float;
}

val generate : ?spec:spec -> Mapqn_prng.Rng.t -> model
(** Draw one random model: a random irreducible stochastic routing matrix
    (entries bounded away from 0), exponential stations with random rates,
    and MAP(2) stations fitted to the drawn statistics (falling back to a
    balanced-means fit when the drawn third moment is H2-infeasible). *)

val generate_many : ?spec:spec -> seed:int -> int -> model list

val near_degenerate : seed:int -> tie_exp:int -> int -> Mapqn_model.Network.t
(** [near_degenerate ~seed ~tie_exp population]: a model of the species
    the hard-model corpus pins. Two exponential queues and a MAP(2)
    queue fitted to the same mean, under uniform routing, so all three
    demands tie; the second queue's rate is split from the first's by
    [10^-tie_exp] ([0] is an exact tie). The seed draws the rate in
    [0.5, 2], the MAP's SCV in [1.5, 4] and its γ₂ in [0, 0.9]. *)
