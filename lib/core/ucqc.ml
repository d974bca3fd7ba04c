(** {1 ucqc — Counting answers to unions of conjunctive queries}

    Public umbrella for the library, a faithful implementation of
    {e Counting Answers to Unions of Conjunctive Queries: Natural
    Tractability Criteria and Meta-Complexity} (Focke, Goldberg, Roth,
    Živný; PODS 2024).

    {2 Layers}

    {b Substrates}
    - {!Combinat}, {!Listx}, {!Intset} — enumeration and set utilities
    - {!Bigint}, {!Rational}, {!Linalg} — exact arithmetic and linear
      algebra (for the Theorem 28 solver)
    - {!Graph}, {!Treedec}, {!Treewidth}, {!Graph_iso} — graphs, tree
      decompositions (Definition 14), exact and heuristic treewidth
    - {!Hypergraph} — GYO reduction, join trees, alpha-acyclicity
    - {!Signature}, {!Structure}, {!Struct_iso} — relational structures,
      tensor products, Gaifman graphs, isomorphism

    {b Query processing}
    - {!Hom} — homomorphism search (the semantics of CQ answers)
    - {!Elim}, {!Counting} — the one elimination engine behind every
      per-term count, with its answer tables and the reduced join tree of
      an acyclic quantifier-free term; strategy dispatch over its orders
    - {!Enumerate} — constant-delay enumeration over that join tree
      (Section 1.1)
    - {!Jointree_count}, {!Treedec_count}, {!Varelim} — exact-arithmetic
      oracles: join-tree counting for acyclic quantifier-free CQs
      (Theorems 4/37), the [n^(tw+1)] dynamic program (Theorem 28's
      tensor products), variable elimination over materialised relations
      for quantified CQs
    - {!Generators} — synthetic databases

    {b The paper's objects}
    - {!Cq} — conjunctive queries [(A, X)]: acyclicity, contracts
      (Definition 20), #minimality and #cores (Definitions 16/19,
      Observation 17), q-hierarchicality
    - {!Ucq} — unions: combined queries [∧(Ψ|J)] (Definition 23), the CQ
      expansion and coefficient function [c_Ψ] (Definition 25, Lemma 26),
      answer counting by inclusion–exclusion and by expansion
    - {!Scomplex}, {!Power_complex} — simplicial complexes, reduced Euler
      characteristic (Definition 40), domination (Lemmas 41/42), power
      complexes (Definition 46, Lemma 47)
    - {!Cnf}, {!Sat_complex}, {!Ktk}, {!Lemma48}, {!Pipeline} — the
      hardness machinery of Section 4.2: 3-SAT → power complex → UCQ
    - {!Wl} — the k-dimensional Weisfeiler–Leman algorithm (Section 5)

    {b Meta algorithms}
    - {!Meta} — the META decision procedure (Lemma 38 / Theorem 5),
      hereditary treewidth (Definition 57), the gap problem (Definition 54)
    - {!Wl_dimension} — WL-dimension of quantifier-free UCQs (Theorems
      7/8/58)
    - {!Monotonicity} — complexity monotonicity (Theorem 28)
    - {!Classify} — the tractability criteria of Theorems 1/2/3
    - {!Counterexamples} — the Appendix A families (Lemmas 59/60/61)

    {b Runtime}
    - {!Budget} — deterministic step budgets, wall-clock deadlines, and
      cooperative cancellation for every exponential engine
    - {!Ucqc_error} — structured errors (parse positions, arity clashes,
      budget exhaustion) with CLI exit-code mapping
    - {!Runner} — Result-based engine boundaries with graceful
      degradation (exact count → Karp–Luby, exact treewidth → heuristic
      bounds)

    {b Extensions}
    - {!Parse}, {!Pretty} — a Datalog-flavoured surface syntax for queries
      and databases (used by the [ucqc] command-line tool)
    - {!Sampler}, {!Karp_luby} — uniform answer sampling (from the join
      tree, or an answer table) and the Karp–Luby (ε, δ)-approximation for
      UCQ counts (Section 1.2)
    - {!Dynamic} — constant-time dynamic counting for q-hierarchical CQs
      (the Berkholz–Keppeler–Schweikardt setting of Section 1.2)
    - {!Paper_examples} — the worked objects of the paper (Figures 1/2,
      Ψ₁/Ψ₂, Corollary 49) *)

module Budget = Budget
module Ucqc_error = Ucqc_error
module Runner = Runner
module Combinat = Combinat
module Listx = Listx
module Intset = Intset
module Bigint = Bigint
module Rational = Rational
module Linalg = Linalg
module Graph = Graph
module Treedec = Treedec
module Treewidth = Treewidth
module Graph_iso = Graph_iso
module Hypergraph = Hypergraph
module Signature = Signature
module Structure = Structure
module Struct_iso = Struct_iso
module Hom = Hom
module Jointree_count = Jointree_count
module Treedec_count = Treedec_count
module Varelim = Varelim
module Elim = Elim
module Counting = Counting
module Enumerate = Enumerate
module Generators = Generators
module Qgen = Qgen
module Cq = Cq
module Ucq = Ucq
module Scomplex = Scomplex
module Power_complex = Power_complex
module Cnf = Cnf
module Sat_complex = Sat_complex
module Ktk = Ktk
module Lemma48 = Lemma48
module Pipeline = Pipeline
module Wl = Wl
module Meta = Meta
module Wl_dimension = Wl_dimension
module Monotonicity = Monotonicity
module Classify = Classify
module Counterexamples = Counterexamples
module Parse = Parse
module Pretty = Pretty
module Sampler = Sampler
module Karp_luby = Karp_luby
module Dynamic = Dynamic
module Paper_examples = Paper_examples
