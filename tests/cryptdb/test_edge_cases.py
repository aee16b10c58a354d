"""Edge-case tests for the CryptDB layer: error paths and less-common shapes."""

from __future__ import annotations

import pytest

from repro.crypto.keys import KeyChain, MasterKey
from repro.cryptdb.proxy import CryptDBProxy, EncryptedResult, JoinGroupSpec
from repro.cryptdb.rewriter import ConstantContext, ConstantPolicy
from repro.db.database import Database
from repro.db.schema import Column, ColumnType, TableSchema
from repro.exceptions import CryptDbError, RewriteError
from repro.sql.parser import parse_query


@pytest.fixture
def nullable_database() -> Database:
    database = Database("nullable")
    database.create_table(
        TableSchema(
            "items",
            [
                Column("item_id", ColumnType.INTEGER),
                Column("label", ColumnType.TEXT),
                Column("price", ColumnType.REAL),
            ],
        )
    )
    database.insert_many(
        "items",
        [
            {"item_id": 1, "label": "a", "price": 10.0},
            {"item_id": 2, "label": None, "price": 20.5},
            {"item_id": 3, "label": "c", "price": None},
            {"item_id": 4, "label": "a", "price": 5.0},
        ],
    )
    return database


@pytest.fixture
def proxy(nullable_database) -> CryptDBProxy:
    proxy = CryptDBProxy(
        KeyChain(MasterKey.from_passphrase("edge-cases")), paillier_bits=256
    )
    proxy.encrypt_database(nullable_database)
    return proxy


class TestNullHandling:
    def test_nulls_stay_null_in_encrypted_tables(self, proxy):
        mapping = proxy.schema_map.table("items")
        encrypted_table = proxy.encrypted_database.table(mapping.encrypted_name)
        label_column = mapping.column("label").physical_name
        from repro.cryptdb.onion import Onion

        values = encrypted_table.column_values(label_column(Onion.EQ))
        assert values.count(None) == 1

    def test_is_null_predicate_over_encrypted_data(self, proxy):
        query = parse_query("SELECT item_id FROM items WHERE label IS NULL")
        decrypted = proxy.decrypt_result(proxy.execute(query))
        assert decrypted.rows == ((2,),)

    def test_null_cells_decrypt_to_null(self, proxy):
        query = parse_query("SELECT item_id, price FROM items WHERE item_id = 3")
        decrypted = proxy.decrypt_result(proxy.execute(query))
        assert decrypted.rows[0][1] is None

    def test_aggregates_skip_nulls_like_plaintext(self, proxy):
        query = parse_query("SELECT COUNT(price), SUM(price) FROM items WHERE item_id > 0")
        decrypted = proxy.decrypt_result(proxy.execute(query))
        plain = proxy.execute_plain(query)
        assert decrypted.rows[0][0] == plain.rows[0][0] == 3
        assert decrypted.rows[0][1] == pytest.approx(plain.rows[0][1])


class TestRealColumnsAndScaling:
    def test_real_range_predicates_use_scaled_ope(self, proxy):
        query = parse_query("SELECT item_id FROM items WHERE price >= 10.0")
        decrypted = proxy.decrypt_result(proxy.execute(query))
        plain = proxy.execute_plain(query)
        assert sorted(decrypted.rows) == sorted(plain.rows)

    def test_real_equality_with_integral_float_matches_plain(self, proxy):
        query = parse_query("SELECT item_id FROM items WHERE price = 10.0")
        decrypted = proxy.decrypt_result(proxy.execute(query))
        assert decrypted.rows == ((1,),)

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_integral_real_cells_decrypt_as_float(self, proxy, backend):
        query = parse_query("SELECT item_id, price FROM items")
        with proxy.session(backend=backend) as session:
            (encrypted,) = session.run([query])
        decrypted = proxy.decrypt_result(encrypted)
        assert sorted(decrypted.rows) == [(1, 10.0), (2, 20.5), (3, None), (4, 5.0)]
        prices = [price for _, price in decrypted.rows if price is not None]
        assert [type(price) for price in prices] == [float, float, float]
        assert all(type(item_id) is int for item_id, _ in decrypted.rows)


class TestErrorPaths:
    def test_decrypt_result_for_unknown_aggregate(self, proxy):
        query = parse_query("SELECT item_id FROM items WHERE item_id = 1")
        result = proxy.execute(query)
        # Corrupt the mapping by pretending the plaintext query had an
        # unsupported projection shape.
        bad = EncryptedResult(
            plain_query=parse_query("SELECT item_id + 1 FROM items WHERE item_id = 1"),
            encrypted_query=result.encrypted_query,
            result=result.result,
        )
        with pytest.raises(CryptDbError):
            proxy.decrypt_result(bad)

    def test_constant_policy_must_be_implemented(self, proxy):
        policy = ConstantPolicy()
        column = proxy.schema_map.column("items", "item_id")
        from repro.cryptdb.onion import Onion

        with pytest.raises(NotImplementedError):
            policy.encrypt_constant(5, ConstantContext(column, Onion.EQ))

    def test_range_predicate_on_text_column_rejected(self, proxy):
        with pytest.raises(RewriteError):
            proxy.encrypt_query(parse_query("SELECT item_id FROM items WHERE label BETWEEN 'a' AND 'c'"))

    def test_group_by_expression_rejected(self, proxy):
        with pytest.raises(RewriteError):
            proxy.encrypt_query(
                parse_query("SELECT COUNT(*) FROM items GROUP BY price * 2")
            )

    def test_having_sum_comparison_rejected(self, proxy):
        with pytest.raises(RewriteError):
            proxy.encrypt_query(
                parse_query(
                    "SELECT label, COUNT(*) FROM items GROUP BY label HAVING SUM(price) > 10"
                )
            )

    def test_join_group_spec_is_hashable_value(self):
        spec = JoinGroupSpec("g", frozenset({("a", "x")}))
        assert spec == JoinGroupSpec("g", frozenset({("a", "x")}))


class TestOrderByAndLimitOverCiphertexts:
    def test_order_by_numeric_column_uses_ope(self, proxy):
        query = parse_query(
            "SELECT item_id, price FROM items WHERE price > 1.0 ORDER BY price ASC"
        )
        decrypted = proxy.decrypt_result(proxy.execute(query))
        plain = proxy.execute_plain(query)
        assert [row[0] for row in decrypted.rows] == [row[0] for row in plain.rows]

    def test_limit_preserved(self, proxy):
        query = parse_query(
            "SELECT item_id FROM items WHERE item_id >= 1 ORDER BY item_id ASC LIMIT 2"
        )
        decrypted = proxy.decrypt_result(proxy.execute(query))
        assert decrypted.rows == ((1,), (2,))
