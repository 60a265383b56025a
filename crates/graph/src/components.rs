//! Connected components.
//!
//! [`connected_components`] is a serial two-phase sampled union-find (the
//! Afforest scheme of Sutton, Ben-Nun and Barak, IPDPS 2018):
//!
//! 1. every node is joined with its first two neighbours, which on a
//!    geometric graph already merges most of the giant component;
//! 2. the largest set after phase 1 is taken as the provisional giant, and
//!    only nodes whose set is *not* that giant join their remaining
//!    neighbours.
//!
//! Phase 2 is exact because adjacency is symmetric: for any edge `{u, v}`
//! outside both endpoints' first two neighbours, either one endpoint was
//! outside the giant when it was visited, and it joined the other, or both
//! endpoints were already in the giant's set, and so already joined. Sets
//! only grow, so an endpoint seen in the giant stays in it.
//!
//! Sets are linked larger root under smaller root, so `parent[u] <= u`
//! always holds and every root is its set's smallest node. Labels are
//! therefore **canonical**: the smallest node of the component, however
//! the unions were ordered. On a graph whose nodes are ranks of a
//! reordered layout, [`Components::by_id`] re-keys them by deployment id.
//!
//! [`LiveComponents`] keeps the same labelling (by deployment id) across
//! edge deletions and insertions, repaired from the changed edges by a
//! budgeted local search; the full pass above seeds it and is its
//! fallback and its oracle.

use std::cmp::Reverse;

use crate::view::GraphView;

/// Component labelling of every node. `label[u]` is the smallest node id
/// in `u`'s component; `count` is the number of components (isolated
/// nodes count).
#[derive(Clone, Debug)]
pub struct Components {
    pub label: Vec<u32>,
    pub count: usize,
}

impl Components {
    /// Label and size of the largest component, ties broken toward the
    /// smallest label (that is, the component holding the smallest id).
    /// `None` for the empty graph.
    pub fn giant(&self) -> Option<(u32, usize)> {
        let mut sizes = vec![0u32; self.label.len()];
        for &l in &self.label {
            sizes[l as usize] += 1;
        }
        sizes
            .iter()
            .enumerate()
            .max_by_key(|&(l, &s)| (s, Reverse(l)))
            .map(|(l, &s)| (l as u32, s as usize))
    }

    /// Ids of nodes in the largest component ([`Components::giant`]'s tie
    /// rule), ascending. Empty for the empty graph.
    pub fn largest(&self) -> Vec<u32> {
        let Some((giant, size)) = self.giant() else {
            return Vec::new();
        };
        let mut ids = Vec::with_capacity(size);
        ids.extend((0..self.label.len() as u32).filter(|&u| self.label[u as usize] == giant));
        ids
    }

    /// Membership mask of the largest component.
    pub fn largest_mask(&self) -> Vec<bool> {
        let giant = self.giant().map_or(u32::MAX, |(l, _)| l);
        self.label.iter().map(|&l| l == giant).collect()
    }

    #[inline]
    pub fn same(&self, u: u32, v: u32) -> bool {
        self.label[u as usize] == self.label[v as usize]
    }

    /// These components of `g`, indexed and labelled by [`GraphView::id`]:
    /// `label[id]` is the smallest id in the component of the node with
    /// that id. The identity for a graph whose nodes are their own ids; a
    /// chunked CSR in a reordered layout gets the labels its deployment-id
    /// graph would.
    pub fn by_id<G: GraphView + ?Sized>(&self, g: &G) -> Components {
        let n = self.label.len();
        let mut least = vec![u32::MAX; n];
        for (u, &root) in self.label.iter().enumerate() {
            let l = &mut least[root as usize];
            *l = (*l).min(g.id(u as u32));
        }
        let mut label = vec![0u32; n];
        for (u, &root) in self.label.iter().enumerate() {
            label[g.id(u as u32) as usize] = least[root as usize];
        }
        Components {
            label,
            count: self.count,
        }
    }
}

/// Root of `x`'s set, with path halving (keeps `parent[x] <= x`).
#[inline]
fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let grand = parent[parent[x as usize] as usize];
        parent[x as usize] = grand;
        x = grand;
    }
    x
}

/// Join the sets of `a` and `b`, the larger root under the smaller.
#[inline]
fn link(parent: &mut [u32], a: u32, b: u32) {
    let (ra, rb) = (find(parent, a), find(parent, b));
    if ra != rb {
        parent[ra.max(rb) as usize] = ra.min(rb);
    }
}

/// Point every node straight at its root. One ascending pass suffices:
/// `parent[u] < u` for a non-root, and that parent is already flat.
fn flatten(parent: &mut [u32]) {
    for u in 0..parent.len() {
        parent[u] = parent[parent[u] as usize];
    }
}

/// Canonically labelled components (see the module docs), in
/// near-linear time, with phase 2 skipping the giant's edges.
pub fn connected_components<G: GraphView + ?Sized>(g: &G) -> Components {
    /// Neighbours each node joins in phase 1.
    const SAMPLED: usize = 2;
    let n = g.n();
    let mut parent: Vec<u32> = (0..n as u32).collect();
    for u in 0..n as u32 {
        for &v in g.neighbors(u).iter().take(SAMPLED) {
            link(&mut parent, u, v);
        }
    }
    // Provisional giant: the most common root after phase 1.
    flatten(&mut parent);
    let mut sizes = vec![0u32; n];
    for &r in &parent {
        sizes[r as usize] += 1;
    }
    let giant = (0..n as u32).max_by_key(|&r| sizes[r as usize]);
    if let Some(giant) = giant {
        for u in 0..n as u32 {
            // Membership first: it reads `parent` only, while a chunked
            // graph keeps each row's length in the row itself.
            if find(&mut parent, u) == find(&mut parent, giant) {
                continue;
            }
            for &v in g.neighbors(u).iter().skip(SAMPLED) {
                link(&mut parent, u, v);
            }
        }
    }
    flatten(&mut parent);
    let count = (0..n).filter(|&u| parent[u] == u as u32).count();
    Components {
        label: parent,
        count,
    }
}

/// Unset entry of [`LiveComponents`]' scratch maps.
const NONE: u32 = u32::MAX;

/// Canonically labelled components kept across edge changes: per node, the
/// smallest [`GraphView::id`] in its component (the labels
/// [`connected_components`]`(g).`[`by_id`](Components::by_id)`(g)` gives,
/// indexed by node instead of by id), per-label sizes, the component count
/// and the giant ([`Components::giant`]'s tie rule), repaired from each
/// change's deleted and created edges instead of recomputed.
///
/// [`LiveComponents::update`] repairs the deletions with a local search on
/// the new graph:
///
/// * **Constraint groups.** The endpoints of the deleted edges are the
///   search's sources, and the deleted edges link them into groups. A
///   cluster of nodes that lost every edge (the dead) therefore groups its
///   surviving ex-neighbours.
/// * **Search.** Every source starts its own set; the sets grow one
///   breadth-first layer per round and unite where they meet. A set whose
///   frontier empties is a whole component of the new graph: it is dropped
///   from the groups, which merge through it.
/// * **Acceptance.** Once the members of each group left over share one
///   set, every old component keeps whatever the search did not carve off
///   as one connected remainder: any old path between two remainder nodes
///   can substitute each deleted edge with a new path between its
///   endpoints, or pass through a carved component whose group ties the
///   two sides together.
///
/// Created edges then unite the remainders' labels. A remainder whose
/// smallest id was carved off, or a merge that moves the label of more
/// than one node, costs two streaming passes over the labels. A search
/// that runs past an internal budget of visits falls back to the full
/// pass.
#[derive(Clone, Debug)]
pub struct LiveComponents {
    /// `label[u]`: the smallest id in node `u`'s component.
    label: Vec<u32>,
    /// Per label, its component's size (0 for an id that labels nothing).
    size: Vec<u32>,
    count: usize,
    giant: Option<(u32, usize)>,
    /// Per node, the search set that claimed it (`NONE` between updates).
    owner: Vec<u32>,
    /// Per label, its index among an update's touched labels (`NONE`
    /// between updates).
    slot: Vec<u32>,
}

/// What one [`LiveComponents::update`] did. Both counts depend only on the
/// graph and the change, never on the thread schedule.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LabelRepair {
    /// Nodes the local search claimed, its sources included.
    pub visited: usize,
    /// Whether the search ran past its budget, so the labels were
    /// recomputed by [`connected_components`].
    pub fell_back: bool,
}

/// The local search's state over its sources (a set is named by a source
/// index; a root is its set's smallest source index).
struct Search {
    /// Set union-find over source indices.
    set: Vec<u32>,
    /// Per set root, claimed nodes not yet expanded.
    pending: Vec<u32>,
    /// Per set root, whether its frontier emptied: a whole component.
    done: Vec<bool>,
    /// Every node the search claimed, in claim order.
    visited: Vec<u32>,
}

impl Search {
    /// The whole component node `x` was carved off into, if any (by its
    /// set root).
    fn carved(&mut self, owner: &[u32], x: u32) -> Option<u32> {
        let o = owner[x as usize];
        if o == NONE {
            return None;
        }
        let r = find(&mut self.set, o);
        self.done[r as usize].then_some(r)
    }
}

/// Marks a node a remainder walk collected, until its new label is
/// written.
const WALKED: u32 = u32::MAX - 1;

/// Remainders of at most this many nodes move their label by a walk over
/// them rather than by a pass over every label.
const WALK_MAX: u32 = 256;

/// The remainder walks of one update.
struct Walks {
    /// Per touched label, its remainder's smallest id if it was walked.
    least: Vec<u32>,
    /// The walked remainders, as touched label and range of `nodes`.
    done: Vec<(u32, usize, usize)>,
    nodes: Vec<u32>,
    stack: Vec<u32>,
}

impl Walks {
    fn new(touched: usize) -> Self {
        Walks {
            least: vec![NONE; touched],
            done: Vec::new(),
            nodes: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Collect the `rem` nodes still labelled `l` (touched label `i`) by a
    /// walk from their `starts` (sorted by touched label) through nodes of
    /// that label, marking them [`WALKED`]. False, with nothing walked, for
    /// a remainder larger than [`WALK_MAX`].
    #[allow(clippy::too_many_arguments)]
    fn walk<G: GraphView + ?Sized>(
        &mut self,
        g: &G,
        label: &mut [u32],
        i: u32,
        l: u32,
        rem: u32,
        starts: &[(u32, u32)],
    ) -> bool {
        if rem > WALK_MAX {
            return false;
        }
        let lo = starts.partition_point(|&(j, _)| j < i);
        let from = starts[lo..].iter().take_while(|&&(j, _)| j == i);
        self.stack.clear();
        self.stack.extend(from.map(|&(_, x)| x));
        let (first, mut least) = (self.nodes.len(), NONE);
        while let Some(u) = self.stack.pop() {
            if label[u as usize] != l {
                continue;
            }
            label[u as usize] = WALKED;
            self.nodes.push(u);
            least = least.min(g.id(u));
            if self.nodes.len() - first == rem as usize {
                break;
            }
            let next = g.neighbors(u).iter().filter(|&&v| label[v as usize] == l);
            self.stack.extend(next);
        }
        assert_eq!(self.nodes.len() - first, rem as usize, "walk of label {l}");
        self.least[i as usize] = least;
        self.done.push((i, first, self.nodes.len()));
        true
    }

    /// The walked remainders, each as touched label and nodes.
    fn remainders(&self) -> impl Iterator<Item = (u32, &[u32])> {
        (self.done.iter()).map(|&(i, lo, hi)| (i, &self.nodes[lo..hi]))
    }
}

/// An old label an update touched.
struct Touched {
    label: u32,
    /// A node carrying it (the node itself for a one-node component).
    node: u32,
    /// Its nodes carved off into whole components.
    carved: u32,
    /// Whether its own node (its smallest id) was carved off.
    moved: bool,
}

impl LiveComponents {
    /// Label `g` from scratch (the full pass).
    pub fn new<G: GraphView + ?Sized>(g: &G) -> Self {
        let n = g.n();
        let mut live = LiveComponents {
            label: Vec::new(),
            size: Vec::new(),
            count: 0,
            giant: None,
            owner: vec![NONE; n],
            slot: vec![NONE; n],
        };
        live.recompute(g);
        live
    }

    /// Per node, the smallest id in its component.
    #[inline]
    pub fn label(&self) -> &[u32] {
        &self.label
    }

    /// The labels indexed by id, as [`Components::by_id`] gives them (`g`
    /// is the graph the labels are kept for).
    pub fn by_id<G: GraphView + ?Sized>(&self, g: &G) -> Vec<u32> {
        let mut by_id = vec![0u32; self.label.len()];
        for (u, &l) in self.label.iter().enumerate() {
            by_id[g.id(u as u32) as usize] = l;
        }
        by_id
    }

    /// Number of components (isolated nodes count).
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Label and size of the largest component, ties toward the smallest
    /// label, as [`Components::giant`] gives them; `None` for the empty
    /// graph.
    #[inline]
    pub fn giant(&self) -> Option<(u32, usize)> {
        self.giant
    }

    /// Relabel from scratch with the full pass.
    fn recompute<G: GraphView + ?Sized>(&mut self, g: &G) {
        let c = connected_components(g);
        let n = c.label.len();
        let mut least = vec![NONE; n];
        for (u, &root) in c.label.iter().enumerate() {
            let l = &mut least[root as usize];
            *l = (*l).min(g.id(u as u32));
        }
        self.label = c.label.iter().map(|&root| least[root as usize]).collect();
        self.size = vec![0; n];
        for &l in &self.label {
            self.size[l as usize] += 1;
        }
        self.count = c.count;
        self.giant = self.largest();
    }

    /// The giant by a scan of the sizes: the first label of the largest.
    fn largest(&self) -> Option<(u32, usize)> {
        let &most = self.size.iter().max()?;
        let l = self.size.iter().position(|&s| s == most)?;
        Some((l as u32, most as usize))
    }

    /// Repair the labels after `g` (the new graph, over the same nodes)
    /// lost the edges `removed` and gained the edges `added`, both as node
    /// pairs, each edge once (see the type docs).
    pub fn update<G: GraphView + ?Sized>(
        &mut self,
        g: &G,
        removed: &[(u32, u32)],
        added: &[(u32, u32)],
    ) -> LabelRepair {
        // Visits (plus the rounds' checks) before the full pass, whose cost
        // is about that of visiting an eighth of the nodes.
        let budget = g.n() / 8 + 1024;
        let Some(mut search) = self.search(g, removed, budget) else {
            self.recompute(g);
            return LabelRepair {
                visited: budget,
                fell_back: true,
            };
        };
        self.relabel(g, &mut search, added);
        for &x in &search.visited {
            self.owner[x as usize] = NONE;
        }
        LabelRepair {
            visited: search.visited.len(),
            fell_back: false,
        }
    }

    /// The local search from the endpoints of `removed`, until every
    /// group's surviving members share one set; `None` (with the scratch
    /// cleared) past `budget`.
    fn search<G: GraphView + ?Sized>(
        &mut self,
        g: &G,
        removed: &[(u32, u32)],
        budget: usize,
    ) -> Option<Search> {
        let owner = &mut self.owner;
        // Sources in order of first appearance, each set its own; the
        // deleted edges link their groups.
        let (mut frontier, mut group) = (Vec::new(), Vec::new());
        for &(u, v) in removed {
            for x in [u, v] {
                if owner[x as usize] == NONE {
                    owner[x as usize] = frontier.len() as u32;
                    group.push(frontier.len() as u32);
                    frontier.push(x);
                }
            }
            link(&mut group, owner[u as usize], owner[v as usize]);
        }
        let k = frontier.len();
        let mut search = Search {
            set: (0..k as u32).collect(),
            pending: vec![1; k],
            done: vec![false; k],
            visited: frontier.clone(),
        };
        let clear = |owner: &mut [u32], visited: &[u32]| {
            for &x in visited {
                owner[x as usize] = NONE;
            }
        };
        if k > budget {
            clear(owner, &search.visited);
            return None;
        }
        let mut next = Vec::new();
        let (mut want, mut conflict, mut active) = (vec![NONE; k], vec![false; k], vec![false; k]);
        let mut work = 0usize;
        let Search {
            set,
            pending,
            done,
            visited,
        } = &mut search;
        // The sources whose set is not yet a whole component.
        let mut live: Vec<u32> = (0..k as u32).collect();
        loop {
            // A set whose frontier emptied is a whole component: its
            // sources' groups merge through it.
            let mut w = 0;
            for j in 0..live.len() {
                let i = live[j];
                let r = find(set, i);
                if pending[r as usize] == 0 {
                    done[r as usize] = true;
                    link(&mut group, i, r);
                } else {
                    live[w] = i;
                    w += 1;
                }
            }
            live.truncate(w);
            // A group is unresolved while its members outside whole
            // components lie in more than one set; those sets grow.
            for &i in &live {
                let gi = find(&mut group, i) as usize;
                (want[gi], conflict[gi]) = (NONE, false);
                active[find(set, i) as usize] = false;
            }
            for &i in &live {
                let (r, gi) = (find(set, i), find(&mut group, i) as usize);
                match want[gi] {
                    NONE => want[gi] = r,
                    w => conflict[gi] |= w != r,
                }
            }
            let mut unresolved = false;
            for &i in &live {
                if conflict[find(&mut group, i) as usize] {
                    active[find(set, i) as usize] = true;
                    unresolved = true;
                }
            }
            if !unresolved {
                return Some(search);
            }
            // One breadth-first layer of every growing set. A round's checks
            // cost about a quarter visit per live source.
            work += live.len() / 4;
            next.clear();
            for &x in &frontier {
                let mut r = find(set, owner[x as usize]);
                if !active[r as usize] {
                    next.push(x);
                    continue;
                }
                pending[r as usize] -= 1;
                for &y in g.neighbors(x) {
                    match owner[y as usize] {
                        NONE => {
                            owner[y as usize] = r;
                            visited.push(y);
                            next.push(y);
                            pending[r as usize] += 1;
                        }
                        o => {
                            let ro = find(set, o);
                            if ro != r {
                                let (lo, hi) = (r.min(ro) as usize, r.max(ro) as usize);
                                set[hi] = lo as u32;
                                pending[lo] += pending[hi];
                                active[lo] |= active[hi];
                                r = lo as u32;
                            }
                        }
                    }
                }
                if visited.len() + work > budget {
                    clear(owner, visited);
                    return None;
                }
            }
            std::mem::swap(&mut frontier, &mut next);
        }
    }

    /// Relabel after an accepted search: the carved-off components take
    /// their smallest id, and the old components' remainders, united by
    /// the `added` edges, take theirs.
    fn relabel<G: GraphView + ?Sized>(&mut self, g: &G, search: &mut Search, added: &[(u32, u32)]) {
        let (label, slot) = (&mut self.label, &mut self.slot);
        let mut touched: Vec<Touched> = Vec::new();
        let mut touch = |u: u32, l: u32| -> u32 {
            let i = &mut slot[l as usize];
            if *i == NONE {
                *i = touched.len() as u32;
                touched.push(Touched {
                    label: l,
                    node: u,
                    carved: 0,
                    moved: false,
                });
            }
            *i
        };
        // The carved-off components: per set root, smallest id and size.
        let k = search.set.len();
        let (mut least, mut size) = (vec![NONE; k], vec![0u32; k]);
        let mut carved = Vec::new();
        for vi in 0..search.visited.len() {
            let x = search.visited[vi];
            if let Some(r) = search.carved(&self.owner, x) {
                let id = g.id(x);
                least[r as usize] = least[r as usize].min(id);
                size[r as usize] += 1;
                carved.push((x, r, touch(x, label[x as usize])));
            }
        }
        // Remainders united by the created edges (both ends of a created
        // edge inside a carved-off component were carved).
        // A node's created edges come together (see
        // `SpliceStats::edges_added`), so a repeat of the last pair united
        // is skipped.
        let (mut unite, mut last) = (Vec::new(), (NONE, NONE));
        for &(u, v) in added {
            let (a, b) = (label[u as usize], label[v as usize]);
            if a != b && (a, b) != last && search.carved(&self.owner, u).is_none() {
                unite.push((touch(u, a), touch(v, b)));
                last = (a, b);
            }
        }
        // A remainder walk starts from the label's uncarved sources and
        // the node it was touched through.
        let mut starts = Vec::new();
        for vi in 0..k {
            let x = search.visited[vi];
            let i = slot[label[x as usize] as usize];
            if i != NONE && search.carved(&self.owner, x).is_none() {
                starts.push((i, x));
            }
        }
        for &(x, _, i) in &carved {
            let t = &mut touched[i as usize];
            t.carved += 1;
            t.moved |= t.label == g.id(x);
            label[x as usize] = NONE;
        }
        starts.extend((touched.iter().enumerate()).map(|(i, t)| (i as u32, t.node)));
        starts.retain(|&(_, x)| label[x as usize] != NONE);
        starts.sort_unstable();
        let mut class: Vec<u32> = (0..touched.len() as u32).collect();
        for &(a, b) in &unite {
            link(&mut class, a, b);
        }
        flatten(&mut class);

        // Each remainder's smallest id: its label unless that was carved
        // off, when a walk finds it (a small remainder) or a pass does.
        let t = touched.len();
        let rem: Vec<u32> = (touched.iter())
            .map(|tl| self.size[tl.label as usize] - tl.carved)
            .collect();
        let mut walks = Walks::new(t);
        let mut pass = false;
        for (i, tl) in touched.iter().enumerate() {
            if tl.moved && rem[i] > 0 {
                pass |= !walks.walk(g, label, i as u32, tl.label, rem[i], &starts);
            }
        }
        let mut class_min = vec![NONE; t];
        for (i, tl) in touched.iter().enumerate() {
            if rem[i] > 0 && !pass {
                let least = match walks.least[i] {
                    NONE => tl.label,
                    walked => walked,
                };
                let c = class[i] as usize;
                class_min[c] = class_min[c].min(least);
            }
        }
        // Every other remainder whose label moves is walked, or else the
        // pass relabels.
        for (i, tl) in touched.iter().enumerate() {
            let c = class[i] as usize;
            if rem[i] > 0 && !pass && !tl.moved && tl.label != class_min[c] {
                pass |= !walks.walk(g, label, i as u32, tl.label, rem[i], &starts);
            }
        }
        if pass {
            // Two streaming passes: each class's smallest remainder id,
            // then the new labels. Carved-off nodes sit out.
            for (i, nodes) in walks.remainders() {
                let l = touched[i as usize].label;
                nodes.iter().for_each(|&u| label[u as usize] = l);
            }
            class_min.fill(NONE);
            let class_of = |l: u32| match l {
                NONE => None,
                l => (slot[l as usize] != NONE).then(|| class[slot[l as usize] as usize] as usize),
            };
            for (u, &l) in label.iter().enumerate() {
                if let Some(c) = class_of(l) {
                    class_min[c] = class_min[c].min(g.id(u as u32));
                }
            }
            for l in label.iter_mut() {
                if let Some(c) = class_of(*l) {
                    *l = class_min[c];
                }
            }
        } else {
            for (i, nodes) in walks.remainders() {
                let l = class_min[class[i as usize] as usize];
                nodes.iter().for_each(|&u| label[u as usize] = l);
            }
        }
        for &(x, r, _) in &carved {
            label[x as usize] = least[r as usize];
        }
        let mut class_size = vec![0u32; t];
        for i in 0..t {
            class_size[class[i] as usize] += rem[i];
        }

        // Sizes, count and giant.
        let giant_touched = self.giant.is_some_and(|(l, _)| slot[l as usize] != NONE);
        for tl in &touched {
            self.size[tl.label as usize] = 0;
            slot[tl.label as usize] = NONE;
        }
        let classes = (0..t).filter(|&c| class[c] == c as u32 && class_size[c] > 0);
        let mut fresh: Vec<(u32, u32)> = classes.map(|c| (class_min[c], class_size[c])).collect();
        fresh.extend((0..k).filter(|&r| size[r] > 0).map(|r| (least[r], size[r])));
        for &(l, s) in &fresh {
            self.size[l as usize] = s;
        }
        self.count = self.count + fresh.len() - touched.len();
        let best = (fresh.iter())
            .max_by_key(|&&(l, s)| (s, Reverse(l)))
            .map(|&(l, s)| (l, s as usize));
        let key = |g: Option<(u32, usize)>| g.map(|(l, s)| (s, Reverse(l)));
        self.giant = match self.giant {
            Some(old) if !giant_touched => std::cmp::max_by_key(Some(old), best, |&g| key(g)),
            old if key(best) >= key(old) => best,
            // The giant shrank below its old size: an untouched component
            // may now be the largest.
            _ => self.largest(),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs;
    use crate::builder::EdgeList;
    use crate::csr::Csr;

    fn two_cliques() -> Csr {
        // {0,1,2} triangle, {3,4} edge, 5 isolated.
        let mut el = EdgeList::new(6);
        el.add(0, 1);
        el.add(1, 2);
        el.add(0, 2);
        el.add(3, 4);
        Csr::from_edge_list(el)
    }

    #[test]
    fn counts_components_including_isolated() {
        let c = connected_components(&two_cliques());
        assert_eq!(c.count, 3);
        assert!(c.same(0, 2));
        assert!(c.same(3, 4));
        assert!(!c.same(0, 3));
        assert!(!c.same(5, 0));
    }

    #[test]
    fn largest_component_is_the_triangle() {
        let c = connected_components(&two_cliques());
        assert_eq!(c.largest(), vec![0, 1, 2]);
        assert_eq!(c.giant(), Some((0, 3)));
        let mask = c.largest_mask();
        assert_eq!(mask, vec![true, true, true, false, false, false]);
    }

    #[test]
    fn labels_agree_with_bfs_reachability() {
        let g = two_cliques();
        let c = connected_components(&g);
        for u in 0..g.n() as u32 {
            let d = bfs::distances(&g, u);
            for v in 0..g.n() as u32 {
                assert_eq!(c.same(u, v), d[v as usize] != crate::UNREACHABLE);
            }
        }
    }

    #[test]
    fn by_id_labels_match_the_deployment_id_graph() {
        // {0,1,2} triangle, {3,4} edge, 5 isolated, stored with node r
        // carrying id to_orig[r].
        let to_orig = vec![4u32, 2, 5, 0, 3, 1];
        let mut to_rank = [0u32; 6];
        for (r, &id) in to_orig.iter().enumerate() {
            to_rank[id as usize] = r as u32;
        }
        let g = two_cliques();
        let runs: Vec<(u32, u32)> = g
            .edges()
            .map(|(u, v)| (to_rank[u as usize], to_rank[v as usize]))
            .collect();
        let ranked = crate::ChunkedCsr::build_ranked(2, &[0, 1, 0, 1, 0, 1], to_orig, [runs]);
        let want = connected_components(&g);
        let got = connected_components(&ranked).by_id(&ranked);
        assert_eq!(got.label, want.label);
        assert_eq!(got.count, want.count);
        assert_eq!(got.giant(), want.giant());
        assert_eq!(want.by_id(&g).label, want.label, "identity layout");
    }

    #[test]
    fn empty_graph_edge_cases() {
        let c = connected_components(&Csr::empty(0));
        assert_eq!(c.count, 0);
        assert!(c.largest().is_empty());
        assert_eq!(c.giant(), None);
        let c1 = connected_components(&Csr::empty(4));
        assert_eq!(c1.count, 4);
        assert_eq!(c1.largest(), vec![0]); // the smallest singleton
    }

    /// `live` holds exactly the full pass's labelling of `g`.
    fn check_live<G: GraphView + ?Sized>(live: &LiveComponents, g: &G, ctx: &str) {
        let want = connected_components(g).by_id(g);
        assert_eq!(live.by_id(g), want.label, "{ctx}: labels");
        assert_eq!(live.count(), want.count, "{ctx}: count");
        assert_eq!(live.giant(), want.giant(), "{ctx}: giant");
    }

    type Edges = Vec<(u32, u32)>;

    /// Edge set change from `old` to `new` (both sorted canonical lists).
    fn diff(old: &[(u32, u32)], new: &[(u32, u32)]) -> (Edges, Edges) {
        let gone = old.iter().filter(|e| new.binary_search(e).is_err());
        let born = new.iter().filter(|e| old.binary_search(e).is_err());
        (gone.copied().collect(), born.copied().collect())
    }

    fn graph(n: usize, edges: &[(u32, u32)]) -> Csr {
        Csr::from_canonical_edges(n, edges)
    }

    #[test]
    fn live_labels_follow_splits_merges_and_a_moved_smallest_id() {
        // A path 0-1-2-3-4 and a pair 5-6. Cut the path at 1-2, so {2, 3,
        // 4} keeps going; then drop node 0's edge, so the remainder {1}
        // loses its smallest id; then bridge 4-5, so label 5 moves to 2.
        let steps: [&[(u32, u32)]; 4] = [
            &[(0, 1), (1, 2), (2, 3), (3, 4), (5, 6)],
            &[(0, 1), (2, 3), (3, 4), (5, 6)],
            &[(2, 3), (3, 4), (5, 6)],
            &[(2, 3), (3, 4), (4, 5), (5, 6)],
        ];
        let mut live = LiveComponents::new(&graph(7, steps[0]));
        check_live(&live, &graph(7, steps[0]), "seed");
        for w in 1..steps.len() {
            let g = graph(7, steps[w]);
            let (gone, born) = diff(steps[w - 1], steps[w]);
            let repair = live.update(&g, &gone, &born);
            assert!(!repair.fell_back);
            check_live(&live, &g, &format!("step {w}"));
        }
        assert_eq!(live.giant(), Some((2, 5)));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Random edge churn, with whole nodes isolated some steps (their
        /// edges all deleted, as a death does), keeps the labels, count
        /// and giant equal to the full pass's, without a fallback on these
        /// small graphs.
        #[test]
        fn prop_live_components_match_the_full_pass(
            n in 1usize..48,
            initial in proptest::collection::vec((0u32..48, 0u32..48), 0..90),
            steps in proptest::collection::vec(
                (
                    proptest::collection::vec(0u8..4, 0..90),
                    proptest::collection::vec((0u32..48, 0u32..48), 0..12),
                    proptest::collection::vec(0u32..48, 0..4),
                ),
                1..6,
            ),
        ) {
            let canon = |raw: &[(u32, u32)]| -> Vec<(u32, u32)> {
                let mut out: Vec<(u32, u32)> = raw
                    .iter()
                    .map(|&(a, b)| (a % n as u32, b % n as u32))
                    .filter(|&(a, b)| a != b)
                    .map(|(a, b)| (a.min(b), a.max(b)))
                    .collect();
                out.sort_unstable();
                out.dedup();
                out
            };
            let mut edges = canon(&initial);
            let mut live = LiveComponents::new(&graph(n, &edges));
            for (w, (keep, fresh, isolate)) in steps.iter().enumerate() {
                let isolate: Vec<u32> = isolate.iter().map(|&u| u % n as u32).collect();
                let mut next: Vec<(u32, u32)> = edges
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| keep.get(i).is_none_or(|&m| m != 0))
                    .map(|(_, &e)| e)
                    .collect();
                next.extend(canon(fresh));
                next.sort_unstable();
                next.dedup();
                next.retain(|&(a, b)| !isolate.contains(&a) && !isolate.contains(&b));
                let g = graph(n, &next);
                let (gone, born) = diff(&edges, &next);
                let repair = live.update(&g, &gone, &born);
                proptest::prop_assert!(!repair.fell_back);
                check_live(&live, &g, &format!("step {w}"));
                edges = next;
            }
        }
    }
}
