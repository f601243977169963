/**
 * @file
 * The tree-shaped high specification of page tables (paper Sec. 4.1).
 *
 * "Entries do not store an indirect index to the next page table,
 * rather they contain the next page table directly ... Such nesting
 * constitutes a tree-shaped view of page tables."  The tree rules out
 * aliasing by construction: installing a mapping is a local change, so
 * invariant proofs over the tree never reason about two entries
 * pointing at the same intermediate table.
 *
 * The paper's parameterized record is:
 *
 *     Record PTE {content} := mkPTE {
 *         addr_content : option (int64 * content);
 *         flags        : list bool;
 *         unused_inv   : addr_content = None ->
 *                        (is_huge = false /\ is_present = false) }.
 *
 * TreePte realizes it with `content` chosen by the presence of a child
 * table (intermediate) versus a terminal target address; absence of an
 * index in a TreeTable is the option's None, and makeTerminal /
 * makeIntermediate enforce unused_inv at construction.
 *
 * The refinement relation R / R_pte between this view and the flat
 * state lives in refinesFlat(); treeFromFlat() is the canonical lift.
 */

#ifndef HEV_CCAL_TREE_STATE_HH
#define HEV_CCAL_TREE_STATE_HH

#include <map>
#include <memory>

#include "ccal/flat_state.hh"
#include "ccal/specs.hh"

namespace hev::ccal
{

struct TreeTable;

/** One entry of the tree view. */
struct TreePte
{
    /** Full non-address flag bits (P, W, U, huge, ...). */
    u64 flags = 0;
    /** Terminal target address; meaningful iff child == nullptr. */
    u64 addr = 0;
    /** Next-level table; non-null iff this is an intermediate entry. */
    std::shared_ptr<TreeTable> child;

    bool present() const { return flags & pteFlagP; }
    bool huge() const { return flags & pteFlagHuge; }
    bool terminal() const { return child == nullptr; }

    /** Construct a terminal entry (leaf or huge). */
    static TreePte makeTerminal(u64 addr, u64 flags);

    /** Construct an intermediate entry with a child table. */
    static TreePte makeIntermediate(u64 flags,
                                    std::shared_ptr<TreeTable> child);
};

/** A page table as a map from indices to entries; absent = None. */
struct TreeTable
{
    std::map<u64, TreePte> entries;
};

/** A whole tree-view page table (level-4 root). */
struct TreeState
{
    std::shared_ptr<TreeTable> root;

    TreeState() : root(std::make_shared<TreeTable>()) {}

    /** Deep copy (entries share nothing with the original). */
    TreeState clone() const;
};

/// @name Lift and refinement relation
/// @{

/**
 * Canonical lift: reconstruct the tree view of the table rooted at
 * `root` in the flat state.  Only present entries appear.
 */
TreeState treeFromFlat(const FlatState &s, u64 root);

/**
 * The relation R: the tree in `t` agrees in content with the flat
 * table rooted at `root` in `s` (R_pte applied recursively).
 */
bool refinesFlat(const TreeState &t, const FlatState &s, u64 root);

/// @}

/// @name High-spec operations on the tree view
/// @{

/** Tree analogue of specPtQuery. */
spec::QueryResult treeQuery(const TreeState &t, u64 va);

/**
 * Tree analogue of specPtMap.  Intermediate tables are created freely
 * (the tree world has no frame budget), so errOutOfMemory can never
 * occur here; all logic errors match the flat spec.
 */
i64 treeMap(TreeState &t, u64 va, u64 pa, u64 flags);

/** Tree analogue of specPtUnmap. */
i64 treeUnmap(TreeState &t, u64 va);

/// @}

/// @name Batched high-spec operations
/// @{

/** One element of a tree-level batch. */
struct TreeBatchOp
{
    bool isMap = true;  //!< map when true, unmap when false
    u64 va = 0;
    u64 pa = 0;         //!< map only
    u64 flags = 0;      //!< map only
};

/**
 * All-or-nothing fold of treeMap/treeUnmap: applies every op to a
 * clone and commits only when all succeed; otherwise returns the
 * fold's first error and leaves `t` untouched.  The tree-level image
 * of the flat batch specs, used by the batch lift checkers and the
 * fuzz executor's GPT mirror.
 */
i64 treeApplyBatch(TreeState &t, const std::vector<TreeBatchOp> &ops);

/// @}

/**
 * Structural equality of two trees (same present entries, flags,
 * terminal addresses, recursively).  Empty intermediate tables are NOT
 * ignored: use queryEquivalent for observational equality.
 */
bool treesEqual(const TreeState &a, const TreeState &b);

/**
 * Observational equality on a probe set: both trees translate every
 * probed VA identically.
 */
bool queryEquivalent(const TreeState &a, const TreeState &b,
                     const std::vector<u64> &probe_vas);

} // namespace hev::ccal

#endif // HEV_CCAL_TREE_STATE_HH
