"""Tests for the service-bus hosting layer."""

import pytest

from repro.modules.errors import InvalidInputError, ModuleUnavailableError
from repro.modules.hosting import ServiceBus, address_of
from repro.modules.model import InterfaceKind
from repro.values import STRING, TypedValue


@pytest.fixture()
def bus(ctx, catalog):
    bus = ServiceBus(ctx)
    bus.publish_all(catalog)
    return bus


class TestAddressing:
    def test_soap_address_shape(self, catalog_by_id):
        module = catalog_by_id["ret.get_uniprot_record"]
        assert module.interface is InterfaceKind.SOAP_SERVICE
        assert address_of(module) == (
            "soap://ebi.example.org/services/ret.get_uniprot_record"
        )

    def test_rest_address_shape(self, catalog_by_id):
        module = catalog_by_id["ret.get_kegg_gene"]
        assert address_of(module).startswith("http://kegg-rest.example.org/")

    def test_local_address_shape(self, catalog):
        module = next(
            m for m in catalog if m.interface is InterfaceKind.LOCAL_PROGRAM
        )
        assert address_of(module).startswith("file:///usr/local/bin/")

    def test_addresses_are_unique_across_catalog(self, catalog):
        addresses = {address_of(m) for m in catalog}
        assert len(addresses) == len(catalog)


class TestPublishing:
    def test_publish_all_returns_directory(self, bus, catalog):
        assert len(bus.addresses()) == len(catalog)

    def test_republishing_same_module_is_idempotent(self, ctx, catalog_by_id):
        bus = ServiceBus(ctx)
        module = catalog_by_id["map.link"]
        assert bus.publish(module) == bus.publish(module)

    def test_resolve_round_trip(self, bus, catalog_by_id):
        module = catalog_by_id["map.link"]
        assert bus.resolve(address_of(module)) is module

    def test_unknown_address_raises(self, bus):
        with pytest.raises(KeyError):
            bus.resolve("soap://nowhere.example.org/services/x")


class TestDispatch:
    def test_successful_call_logged(self, bus, catalog_by_id, pool):
        module = catalog_by_id["ret.get_uniprot_record"]
        outputs = bus.call(
            address_of(module), {"id": pool.get_instance("UniProtAccession")}
        )
        assert "record" in outputs
        log = bus.calls_to(module.module_id)
        assert len(log) == 1 and log[0].succeeded

    def test_failed_call_logged_and_raised(self, bus, catalog_by_id):
        module = catalog_by_id["ret.get_uniprot_record"]
        with pytest.raises(InvalidInputError):
            bus.call(address_of(module), {"id": TypedValue("garbage", STRING)})
        log = bus.calls_to(module.module_id)
        assert not log[-1].succeeded
        assert log[-1].error == "InvalidInputError"

    def test_log_sequence_is_monotonic(self, bus, catalog_by_id, pool):
        module = catalog_by_id["ret.get_uniprot_record"]
        for _ in range(3):
            bus.call(
                address_of(module), {"id": pool.get_instance("UniProtAccession")}
            )
        sequences = [r.sequence for r in bus.log()]
        assert sequences == sorted(sequences)

    def test_failure_rate(self, bus, catalog_by_id, pool):
        module = catalog_by_id["ret.get_uniprot_record"]
        bus.call(address_of(module), {"id": pool.get_instance("UniProtAccession")})
        with pytest.raises(InvalidInputError):
            bus.call(address_of(module), {"id": TypedValue("nope", STRING)})
        assert bus.failure_rate() == pytest.approx(0.5)

    def test_empty_log_failure_rate(self, ctx):
        assert ServiceBus(ctx).failure_rate() == 0.0


class TestDecayVisibility:
    def test_decayed_provider_surfaces_in_log(self, ctx, pool):
        from repro.modules.catalog.decayed import (
            DECAYED_PROVIDERS,
            build_decayed_modules,
        )
        from repro.workflow.decay import shut_down_providers

        decayed = build_decayed_modules()
        bus = ServiceBus(ctx)
        bus.publish_all(decayed)
        twin = next(m for m in decayed if m.module_id == "old.get_kegg_gene_s")
        shut_down_providers(decayed, DECAYED_PROVIDERS)
        with pytest.raises(ModuleUnavailableError):
            bus.call(address_of(twin), {"id": pool.get_instance("KEGGGeneId")})
        record = bus.calls_to(twin.module_id)[-1]
        assert not record.succeeded
        assert record.error == "ModuleUnavailableError"
        assert bus.resolve(record.address).provider == "KEGG-SOAP"
