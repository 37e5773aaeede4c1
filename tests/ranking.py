"""The full-sort search reference that the tests compare ``search_run`` with.

A plain module, like ``reconstruction.py``, so test files can share it. It
scores every row with its own code and sorts them all on (score
descending, id ascending), with no partition and no id ranks.
"""

import numpy as np


def full_sort_topk(query, ids, matrix, k, metric="dot"):
    """The k best ``(id, score)`` pairs for one query by a full sort.

    Scores are float64: ``dot`` is the matrix-vector product, and
    ``cosine`` divides it by the query's norm and then by each row's norm,
    with 0 for a zero query or a zero row.
    """
    docs = np.asarray(matrix, dtype=np.float64)
    q = np.asarray(query, dtype=np.float64)
    scores = docs @ q
    if metric == "cosine":
        q_norm = float(np.linalg.norm(q))
        row_norms = np.linalg.norm(docs, axis=1)
        cosines = np.zeros(len(docs))
        if q_norm != 0.0:
            live = row_norms != 0.0
            cosines[live] = scores[live] / q_norm / row_norms[live]
        scores = cosines
    else:
        assert metric == "dot", metric
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
    return [(ids[i], float(scores[i])) for i in order[:k]]
