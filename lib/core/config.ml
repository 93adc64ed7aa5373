type t = {
  max_rows_implicit : int;
  max_cols_implicit : int;
  num_iter : int;
  best_col_start : int;
  best_col_growth : int;
  dual_pen_max_cols : int;
  alpha : float;
  c_hat : float;
  mu_hat : float;
  use_gimpel : bool;
  use_penalties : bool;
  warm_start : bool;
  seed : int;
  jobs : int;
  par_min_rows : int;
  dense_threshold : int;
  zdd_initial_size : int;
  zdd_gc_threshold : int;
  zdd_chain_reduction : bool;
  subgradient : Lagrangian.Subgradient.config;
}

let default =
  {
    max_rows_implicit = 5000;
    max_cols_implicit = 10_000;
    num_iter = 5;
    best_col_start = 1;
    best_col_growth = 1;
    dual_pen_max_cols = 100;
    alpha = 2.;
    c_hat = 0.001;
    mu_hat = 0.999;
    use_gimpel = true;
    use_penalties = true;
    warm_start = true;
    seed = 0x5C6;
    jobs = 1;
    par_min_rows = Par.default_min_rows;
    dense_threshold = Covering.Dense.default_threshold;
    zdd_initial_size = Zdd.default_initial_size;
    zdd_gc_threshold = Zdd.default_gc_threshold;
    zdd_chain_reduction = true;
    subgradient = Lagrangian.Subgradient.default_config;
  }

let pp ppf c =
  Fmt.pf ppf
    "@[<v>MaxR=%d NumIter=%d BestCol=%d+%d DualPen=%d alpha=%g c_hat=%g mu_hat=%g \
     gimpel=%b seed=%d jobs=%d par_min_rows=%d dense=%d \
     zdd_table=%d zdd_gc=%d chain=%b@]"
    c.max_rows_implicit c.num_iter c.best_col_start c.best_col_growth
    c.dual_pen_max_cols c.alpha c.c_hat c.mu_hat c.use_gimpel
    c.seed c.jobs c.par_min_rows c.dense_threshold c.zdd_initial_size
    c.zdd_gc_threshold c.zdd_chain_reduction
