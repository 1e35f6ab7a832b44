#include "linalg/ordering.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/error.hpp"

namespace nanosim::linalg {

namespace {

constexpr std::size_t k_npos = std::numeric_limits<std::size_t>::max();

/// Undirected adjacency of the symmetrized pattern (diagonal dropped,
/// neighbours sorted and unique).
std::vector<std::vector<std::size_t>>
symmetrized_adjacency(std::size_t n, const std::vector<std::size_t>& col_ptr,
                      const std::vector<std::size_t>& row_idx) {
    if (col_ptr.size() != n + 1) {
        throw SimError("ordering: col_ptr size does not match n");
    }
    std::vector<std::vector<std::size_t>> adj(n);
    for (std::size_t c = 0; c < n; ++c) {
        for (std::size_t p = col_ptr[c]; p < col_ptr[c + 1]; ++p) {
            const std::size_t r = row_idx[p];
            if (r >= n) {
                throw SimError("ordering: row index out of range");
            }
            if (r != c) {
                adj[c].push_back(r);
                adj[r].push_back(c);
            }
        }
    }
    for (auto& list : adj) {
        std::sort(list.begin(), list.end());
        list.erase(std::unique(list.begin(), list.end()), list.end());
    }
    return adj;
}

/// BFS level structure from `root` over unvisited-agnostic adjacency,
/// restricted to one component.  Returns the visit order; `level` is
/// component-local (k_npos outside the component).
std::vector<std::size_t>
bfs_levels(const std::vector<std::vector<std::size_t>>& adj, std::size_t root,
           std::vector<std::size_t>& level) {
    std::fill(level.begin(), level.end(), k_npos);
    std::vector<std::size_t> order;
    order.push_back(root);
    level[root] = 0;
    for (std::size_t head = 0; head < order.size(); ++head) {
        const std::size_t u = order[head];
        for (const std::size_t v : adj[u]) {
            if (level[v] == k_npos) {
                level[v] = level[u] + 1;
                order.push_back(v);
            }
        }
    }
    return order;
}

} // namespace

const char* ordering_name(Ordering o) noexcept {
    switch (o) {
    case Ordering::natural:
        return "natural";
    case Ordering::rcm:
        return "rcm";
    case Ordering::min_degree:
        return "min_degree";
    }
    return "?";
}

Permutation::Permutation(std::vector<std::size_t> new_to_old)
    : new_to_old_(std::move(new_to_old)) {
    const std::size_t n = new_to_old_.size();
    old_to_new_.assign(n, k_npos);
    for (std::size_t j = 0; j < n; ++j) {
        const std::size_t v = new_to_old_[j];
        if (v >= n || old_to_new_[v] != k_npos) {
            throw SimError("Permutation: not a bijection of {0..n-1}");
        }
        old_to_new_[v] = j;
    }
}

Permutation Permutation::identity(std::size_t n) {
    std::vector<std::size_t> p(n);
    for (std::size_t i = 0; i < n; ++i) {
        p[i] = i;
    }
    return Permutation(std::move(p));
}

bool Permutation::is_identity() const noexcept {
    for (std::size_t j = 0; j < new_to_old_.size(); ++j) {
        if (new_to_old_[j] != j) {
            return false;
        }
    }
    return true;
}

Permutation Permutation::inverse() const {
    return Permutation(old_to_new_);
}

void Permutation::apply(const Vector& v, Vector& out) const {
    if (v.size() != new_to_old_.size()) {
        throw SimError("Permutation::apply: size mismatch");
    }
    out.resize(v.size());
    for (std::size_t j = 0; j < v.size(); ++j) {
        out[j] = v[new_to_old_[j]];
    }
}

Vector Permutation::apply(const Vector& v) const {
    Vector out;
    apply(v, out);
    return out;
}

void Permutation::apply_inverse(const Vector& v, Vector& out) const {
    if (v.size() != new_to_old_.size()) {
        throw SimError("Permutation::apply_inverse: size mismatch");
    }
    out.resize(v.size());
    for (std::size_t j = 0; j < v.size(); ++j) {
        out[new_to_old_[j]] = v[j];
    }
}

Vector Permutation::apply_inverse(const Vector& v) const {
    Vector out;
    apply_inverse(v, out);
    return out;
}

void Permutation::permute_pattern(const std::vector<std::size_t>& col_ptr,
                                  const std::vector<std::size_t>& row_idx,
                                  std::vector<std::size_t>& out_col_ptr,
                                  std::vector<std::size_t>& out_row_idx,
                                  std::vector<std::size_t>& slot_map) const {
    const std::size_t n = size();
    if (col_ptr.size() != n + 1) {
        throw SimError("Permutation::permute_pattern: size mismatch");
    }
    out_col_ptr.assign(n + 1, 0);
    out_row_idx.resize(row_idx.size());
    slot_map.resize(row_idx.size());
    std::vector<std::pair<std::size_t, std::size_t>> col; // (new row, slot)
    std::size_t s = 0;
    for (std::size_t jc = 0; jc < n; ++jc) {
        const std::size_t c = new_to_old_[jc];
        col.clear();
        for (std::size_t p = col_ptr[c]; p < col_ptr[c + 1]; ++p) {
            col.emplace_back(old_to_new_[row_idx[p]], p);
        }
        std::sort(col.begin(), col.end());
        for (const auto& [row, slot] : col) {
            out_row_idx[s] = row;
            slot_map[s] = slot;
            ++s;
        }
        out_col_ptr[jc + 1] = s;
    }
}

Permutation reverse_cuthill_mckee(std::size_t n,
                                  const std::vector<std::size_t>& col_ptr,
                                  const std::vector<std::size_t>& row_idx) {
    const auto adj = symmetrized_adjacency(n, col_ptr, row_idx);

    std::vector<std::size_t> order;
    order.reserve(n);
    std::vector<bool> numbered(n, false);
    std::vector<std::size_t> level(n, k_npos);
    std::vector<std::size_t> neighbours;

    auto degree = [&](std::size_t v) { return adj[v].size(); };

    for (std::size_t seed = 0; seed < n; ++seed) {
        if (numbered[seed]) {
            continue;
        }
        // Component of `seed`; start from its min-degree node and walk to
        // a pseudo-peripheral node (George-Liu: re-root at the smallest-
        // degree node of the deepest level until eccentricity stalls).
        std::vector<std::size_t> component = bfs_levels(adj, seed, level);
        std::size_t root = seed;
        for (const std::size_t v : component) {
            if (degree(v) < degree(root)) {
                root = v;
            }
        }
        std::size_t ecc = 0;
        for (int iter = 0; iter < 8; ++iter) {
            component = bfs_levels(adj, root, level);
            const std::size_t depth = level[component.back()];
            if (depth <= ecc && iter > 0) {
                break;
            }
            ecc = depth;
            std::size_t candidate = component.back();
            for (const std::size_t v : component) {
                if (level[v] == depth && degree(v) < degree(candidate)) {
                    candidate = v;
                }
            }
            root = candidate;
        }

        // Cuthill-McKee numbering: BFS from the root, queuing each node's
        // unnumbered neighbours in ascending (degree, index) order.
        const std::size_t head0 = order.size();
        order.push_back(root);
        numbered[root] = true;
        for (std::size_t head = head0; head < order.size(); ++head) {
            neighbours.clear();
            for (const std::size_t v : adj[order[head]]) {
                if (!numbered[v]) {
                    numbered[v] = true;
                    neighbours.push_back(v);
                }
            }
            std::sort(neighbours.begin(), neighbours.end(),
                      [&](std::size_t a, std::size_t b) {
                          return degree(a) != degree(b)
                                     ? degree(a) < degree(b)
                                     : a < b;
                      });
            order.insert(order.end(), neighbours.begin(), neighbours.end());
        }
    }

    std::reverse(order.begin(), order.end());
    return Permutation(std::move(order));
}

Permutation min_degree_ordering(std::size_t n,
                                const std::vector<std::size_t>& col_ptr,
                                const std::vector<std::size_t>& row_idx) {
    auto adj = symmetrized_adjacency(n, col_ptr, row_idx);

    std::vector<bool> alive(n, true);
    std::vector<std::size_t> degree(n);
    for (std::size_t v = 0; v < n; ++v) {
        degree[v] = adj[v].size();
    }

    std::vector<std::size_t> order;
    order.reserve(n);
    std::vector<std::size_t> clique;   // alive neighbours of the pivot
    std::vector<std::size_t> merged;

    for (std::size_t step = 0; step < n; ++step) {
        // Least external degree, ties on index (linear scan: the MNA
        // systems this serves are a few thousand unknowns).
        std::size_t v = k_npos;
        for (std::size_t u = 0; u < n; ++u) {
            if (alive[u] && (v == k_npos || degree[u] < degree[v])) {
                v = u;
            }
        }
        order.push_back(v);
        alive[v] = false;

        clique.clear();
        for (const std::size_t u : adj[v]) {
            if (alive[u]) {
                clique.push_back(u);
            }
        }
        // Eliminating v connects its neighbours into a clique; dead
        // entries are swept out of each list during the merge so the
        // graph never accumulates corpses.
        for (const std::size_t u : clique) {
            merged.clear();
            auto it_a = adj[u].begin();
            const auto end_a = adj[u].end();
            auto it_c = clique.begin();
            const auto end_c = clique.end();
            while (it_a != end_a || it_c != end_c) {
                std::size_t next;
                if (it_c == end_c ||
                    (it_a != end_a && *it_a <= *it_c)) {
                    next = *it_a;
                    if (it_c != end_c && *it_c == next) {
                        ++it_c;
                    }
                    ++it_a;
                    if (!alive[next]) {
                        continue;
                    }
                } else {
                    next = *it_c++;
                }
                if (next != u) {
                    merged.push_back(next);
                }
            }
            adj[u].assign(merged.begin(), merged.end());
            degree[u] = adj[u].size();
        }
        adj[v].clear();
        adj[v].shrink_to_fit();
    }
    return Permutation(std::move(order));
}

std::size_t predicted_fill(std::size_t n,
                           const std::vector<std::size_t>& col_ptr,
                           const std::vector<std::size_t>& row_idx,
                           const Permutation& perm) {
    if (!perm.empty() && perm.size() != n) {
        throw SimError("predicted_fill: permutation size mismatch");
    }
    const bool identity = perm.empty();
    const std::vector<std::size_t>* o2n =
        identity ? nullptr : &perm.old_to_new();

    if (col_ptr.size() != n + 1) {
        throw SimError("predicted_fill: col_ptr size does not match n");
    }
    // Strictly-lower symmetrized pattern in permuted space.
    std::vector<std::vector<std::size_t>> lower(n);
    for (std::size_t c = 0; c < n; ++c) {
        for (std::size_t p = col_ptr[c]; p < col_ptr[c + 1]; ++p) {
            const std::size_t r = row_idx[p];
            if (r >= n) {
                throw SimError("predicted_fill: row index out of range");
            }
            const std::size_t pr = identity ? r : (*o2n)[r];
            const std::size_t pc = identity ? c : (*o2n)[c];
            if (pr != pc) {
                lower[std::min(pr, pc)].push_back(std::max(pr, pc));
            }
        }
    }
    for (auto& list : lower) {
        std::sort(list.begin(), list.end());
        list.erase(std::unique(list.begin(), list.end()), list.end());
    }

    // Symbolic no-pivoting factorisation by child-merge: the pattern of
    // L(:,j) is A_lower(:,j) union the below-j rows of every child column
    // (a column's rows land in exactly one parent, so total work is
    // O(nnz(L))).
    std::vector<std::vector<std::size_t>> lpat(n);
    std::vector<std::vector<std::size_t>> children(n);
    std::vector<std::size_t> mark(n, k_npos);
    std::vector<std::size_t> rows;
    std::size_t nnz_l = n; // diagonal
    for (std::size_t j = 0; j < n; ++j) {
        rows.clear();
        mark[j] = j;
        for (const std::size_t r : lower[j]) {
            if (mark[r] != j) {
                mark[r] = j;
                rows.push_back(r);
            }
        }
        for (const std::size_t k : children[j]) {
            for (const std::size_t r : lpat[k]) {
                if (mark[r] != j) {
                    mark[r] = j;
                    rows.push_back(r);
                }
            }
            lpat[k].clear();
            lpat[k].shrink_to_fit();
        }
        nnz_l += rows.size();
        if (!rows.empty()) {
            const std::size_t parent =
                *std::min_element(rows.begin(), rows.end());
            children[parent].push_back(j);
            lpat[j] = rows;
        }
    }
    // Symmetric-pattern LU: L (unit diag implicit) + U share the
    // structure, diagonal counted once — comparable to
    // SparseLu::nnz_factors().
    return 2 * nnz_l - n;
}

} // namespace nanosim::linalg
