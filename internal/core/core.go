// Package core implements the paper's primary contribution: the social-welfare
// maximization problem for P2P chunk scheduling, modeled as a transportation
// problem (paper §III–IV), together with
//
//   - the primal-dual auction (Bertsekas-style ε-auction with Gauss–Seidel
//     bidding, the paper's literal ε=0 rule as a setting) in one kernel, the
//     Solver: Load resets it cold on a built Problem and Solve runs one
//     fresh auction (SolveAuction is a fresh Solver loaded and solved once),
//   - an exact successive-shortest-path min-cost-flow solver used as the
//     optimality ground truth,
//   - a brute-force solver for tiny instances,
//   - a greedy heuristic for comparisons, and
//   - verification of feasibility, ε-complementary-slackness and LP duality.
//
// Terminology follows the paper: a request (Id, c) — peer d wanting chunk c —
// is a unit-demand "source"; a peer u with upload capacity B(u) is a "sink"
// with B(u) identical bandwidth units; the edge weight is the net utility
// v_c(d) − w_{u→d}. Maximizing total weight subject to sink capacities and
// unit demand per request is problem (1) of the paper; the sink prices λ_u
// are the dual variables of the upload-capacity constraints (2).
package core

// RequestID identifies a source (a peer-chunk request) in a Problem.
type RequestID int

// SinkID identifies a sink (an uploading peer) in a Problem.
type SinkID int

// Unassigned marks a request that receives no bandwidth in an Assignment.
const Unassigned SinkID = -1
